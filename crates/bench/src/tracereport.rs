//! The `ril-bench trace` and `ril-bench validate` subcommands over a
//! finished run directory.
//!
//! Every experiment run leaves one run record next to its tables: the
//! span log `SPANS_<exp>.jsonl` (spans, notes, errors and the metrics
//! trailer; DESIGN.md §9), written and read by `ril-trace`, plus its
//! `MANIFEST_<exp>.json`.
//!
//! - [`validate_run_dir`] checks every manifest and span log — every
//!   line parses, per-thread timestamps are monotonic, span begin/end
//!   records balance, parents resolve — which is what the CI smoke stage
//!   runs over a finished run directory.
//! - [`trace_report`] prints each log's per-phase *exclusive-time*
//!   breakdown ([`ril_trace::breakdown`]: encode vs. DIP-solve vs.
//!   verify vs. oracle, per cell), flagging anomalies such as
//!   verify-dominated cells, and renders each log as a Perfetto-loadable
//!   `TRACE_<exp>.json` beside it.

use std::path::Path;

use ril_trace::{breakdown, check_spans_jsonl, chrome_trace_json};

use crate::cache::Manifest;
use crate::print_table;

fn ms(us: u64) -> String {
    format!("{:.1}", us as f64 / 1000.0)
}

fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        return "-".into();
    }
    format!("{:.0}%", 100.0 * part as f64 / whole as f64)
}

/// Renders the per-phase breakdown for every `SPANS_*.jsonl` in
/// `run_dir`, printing one table per experiment plus its headline
/// counters, and writes each log's Chrome trace as `TRACE_<exp>.json`
/// beside it. Returns a one-line summary.
///
/// # Errors
///
/// When the directory has no span logs, a span log fails validation, or
/// a Chrome trace cannot be written.
pub fn trace_report(run_dir: &Path) -> Result<String, String> {
    let mut span_files = list_prefixed(run_dir, "SPANS_", ".jsonl")?;
    span_files.sort();
    if span_files.is_empty() {
        return Err(format!(
            "no SPANS_*.jsonl in {} — run an experiment first",
            run_dir.display()
        ));
    }
    let mut experiments = 0usize;
    let mut total_cells = 0usize;
    let mut anomalies = 0usize;
    for file in &span_files {
        let exp = file
            .file_name()
            .and_then(|n| n.to_str())
            .map(|n| {
                n.trim_start_matches("SPANS_")
                    .trim_end_matches(".jsonl")
                    .to_string()
            })
            .unwrap_or_default();
        let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        let stats = check_spans_jsonl(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        let chrome = run_dir.join(format!("TRACE_{exp}.json"));
        std::fs::write(&chrome, chrome_trace_json(&stats))
            .map_err(|e| format!("{}: {e}", chrome.display()))?;
        let (cells, totals) = breakdown(&stats);
        experiments += 1;
        total_cells += cells.len();

        let mut rows: Vec<Vec<String>> = Vec::new();
        for c in &cells {
            let flag = c.anomaly();
            anomalies += usize::from(!flag.is_empty());
            rows.push(vec![
                c.label.clone(),
                ms(c.wall_us),
                format!(
                    "{} ({})",
                    ms(c.phases.encode_us),
                    pct(c.phases.encode_us, c.wall_us)
                ),
                format!(
                    "{} ({})",
                    ms(c.phases.solve_us),
                    pct(c.phases.solve_us, c.wall_us)
                ),
                format!(
                    "{} ({})",
                    ms(c.phases.verify_us),
                    pct(c.phases.verify_us, c.wall_us)
                ),
                format!(
                    "{} ({})",
                    ms(c.phases.oracle_us),
                    pct(c.phases.oracle_us, c.wall_us)
                ),
                pct(c.phases.attributed_us().min(c.wall_us), c.wall_us),
                flag.to_string(),
            ]);
        }
        rows.push(vec![
            "(run total)".into(),
            ms(totals.total_us()),
            ms(totals.encode_us),
            ms(totals.solve_us),
            ms(totals.verify_us),
            ms(totals.oracle_us),
            pct(totals.attributed_us(), totals.total_us()),
            String::new(),
        ]);
        print_table(
            &format!("{exp} — per-phase time, ms (exclusive)"),
            &[
                "cell", "wall", "encode", "solve", "verify", "oracle", "attrib", "flags",
            ],
            &rows,
        );
        let metrics = &stats.metrics;
        if !metrics.counters.is_empty() {
            let counters: Vec<String> = metrics
                .counters
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            println!("counters: {}", counters.join("  "));
        }
        // Derived batch efficiency: how full the oracle's 64-lane blocks
        // ran (oracle.batch.lanes_wasted counts the empty lanes).
        let counter = |name: &str| {
            metrics
                .counters
                .iter()
                .find(|(k, _)| k == name)
                .map(|&(_, v)| v)
        };
        if let (Some(blocks), Some(patterns)) = (
            counter("oracle.batch.blocks"),
            counter("oracle.batch.patterns"),
        ) {
            if blocks > 0 {
                println!(
                    "oracle batches: {patterns} patterns over {blocks} block(s), \
                     {:.0}% lane occupancy",
                    100.0 * patterns as f64 / (blocks * 64) as f64
                );
            }
        }
        // Remote-oracle wire health: round-trip quantiles from the
        // client's histogram plus its reconnect-retry count.
        if let Some(rt) = metrics.timing("oracle.remote.round_trip") {
            println!(
                "remote oracle: {} round trip(s), p50 {:.0}µs, p99 {:.0}µs, \
                 max {}µs, {} retrie(s)",
                rt.count,
                rt.p50_us(),
                rt.p99_us(),
                rt.max_us,
                counter("oracle.remote.retries").unwrap_or(0),
            );
        }
        // Farm health: how the distributed phase behaved (lease churn,
        // crash-recovery steals, per-cell wall quantiles).
        if let Some(completed) = counter("farm.cells.completed") {
            let mut line = format!(
                "farm: {completed} cell(s) completed over the wire \
                 ({} leased, {} expired, {} stolen, {} duplicate, {} failed)",
                counter("farm.cells.leased").unwrap_or(0),
                counter("farm.cells.expired").unwrap_or(0),
                counter("farm.cells.stolen").unwrap_or(0),
                counter("farm.cells.duplicate").unwrap_or(0),
                counter("farm.cells.failed").unwrap_or(0),
            );
            if let Some(wall) = metrics.timing("farm.cell.wall") {
                line.push_str(&format!(
                    ", cell wall p50 {:.0}µs p99 {:.0}µs",
                    wall.p50_us(),
                    wall.p99_us()
                ));
            }
            println!("{line}");
        }
    }
    Ok(format!(
        "{experiments} experiment(s), {total_cells} cell(s), {anomalies} anomalie(s)"
    ))
}

/// Validates every artifact of a run directory: each `MANIFEST_*.json`
/// parses and each `SPANS_*.jsonl` passes [`check_spans_jsonl`]. Returns
/// a one-line summary.
///
/// # Errors
///
/// Lists every failing artifact (the whole directory is checked before
/// reporting).
pub fn validate_run_dir(run_dir: &Path) -> Result<String, String> {
    let mut checked = 0usize;
    let mut failures: Vec<String> = Vec::new();
    let mut check = |files: Result<Vec<std::path::PathBuf>, String>,
                     f: &dyn Fn(&str) -> Result<(), String>| {
        let files = match files {
            Ok(fs) => fs,
            Err(e) => {
                failures.push(e);
                return;
            }
        };
        for file in files {
            checked += 1;
            let verdict = std::fs::read_to_string(&file)
                .map_err(|e| e.to_string())
                .and_then(|text| f(&text));
            if let Err(e) = verdict {
                failures.push(format!("{}: {e}", file.display()));
            }
        }
    };
    check(list_prefixed(run_dir, "MANIFEST_", ".json"), &|text| {
        Manifest::from_json(text).map(|_| ())
    });
    check(list_prefixed(run_dir, "SPANS_", ".jsonl"), &|text| {
        check_spans_jsonl(text).map(|_| ())
    });
    if checked == 0 {
        return Err(format!("no run artifacts in {}", run_dir.display()));
    }
    if failures.is_empty() {
        Ok(format!("{checked} artifact(s) valid"))
    } else {
        Err(failures.join("\n"))
    }
}

fn list_prefixed(
    dir: &Path,
    prefix: &str,
    suffix: &str,
) -> Result<Vec<std::path::PathBuf>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with(prefix) && name.ends_with(suffix) {
            out.push(entry.path());
        }
    }
    out.sort();
    Ok(out)
}
