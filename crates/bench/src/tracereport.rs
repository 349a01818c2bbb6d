//! Trace post-processing: integrity checking and per-phase breakdowns.
//!
//! Every experiment run leaves three machine-readable streams next to its
//! tables: `EVENTS_<exp>.jsonl` (progress events), `SPANS_<exp>.jsonl`
//! (hierarchical trace spans, see DESIGN.md §9) and `TRACE_<exp>.json`
//! (the same spans as a Chrome/Perfetto trace). This module is the
//! consumer side:
//!
//! - [`check_spans_jsonl`] / [`check_events_jsonl`] / [`check_chrome_trace`]
//!   verify stream integrity — every line parses, per-thread timestamps
//!   are monotonic, span begin/end records balance, parents resolve —
//!   which is what `ril-bench validate <run-dir>` (and the CI smoke
//!   stage) runs over a finished run directory.
//! - [`trace_report`] aggregates a run's spans into a per-phase
//!   *exclusive-time* breakdown (encode vs. DIP-solve vs. verify vs.
//!   oracle, per cell), flagging anomalies such as verify-dominated cells — the
//!   `ril-bench trace <run-dir>` subcommand.
//!
//! Exclusive time is a span's wall time minus the wall time of its direct
//! children, so a phase total never double-counts nested spans: the
//! `iteration` span's exclusive time is DIP-loop bookkeeping, not the
//! `solve` span it contains.

use std::collections::HashMap;
use std::path::Path;

use ril_attacks::json::JsonValue;
use ril_trace::Phase;

use crate::cache::Manifest;
use crate::print_table;

/// One reconstructed span from a `SPANS_*.jsonl` stream.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Span id (unique within the stream, never 0).
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Span name (`cell`, `solve`, …).
    pub name: String,
    /// The span's phase bucket.
    pub phase: Phase,
    /// Opening thread.
    pub tid: u64,
    /// Open timestamp, µs since tracer start.
    pub begin_us: u64,
    /// Close timestamp, µs since tracer start.
    pub end_us: u64,
    /// The `label` field recorded at close, if any (cells carry one).
    pub label: Option<String>,
}

impl SpanRec {
    /// Wall time in µs.
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.begin_us)
    }
}

/// What a validated span stream contains.
#[derive(Debug, Clone)]
pub struct SpanStats {
    /// All spans, in begin order.
    pub spans: Vec<SpanRec>,
    /// Counter values from the final metrics record (sorted by name).
    pub counters: Vec<(String, u64)>,
    /// Latency histograms from the final metrics record (sorted by
    /// name) — the same log₂-bucket snapshots the serve wire carries.
    pub timings: Vec<(String, ril_trace::HistogramSnapshot)>,
}

fn field_u64(v: &JsonValue, key: &str, line_no: usize) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("line {line_no}: missing/invalid \"{key}\""))
}

/// Validates a `SPANS_*.jsonl` stream and reconstructs its spans.
///
/// Checks, in order: every line is a JSON object with a known `ev` tag;
/// span ids are unique and non-zero; every `end` matches an open `begin`
/// and every `begin` is eventually ended (balance — this holds even for
/// runs that panicked, because span guards close on unwind); parents are
/// opened before their children; per-thread timestamps are monotonically
/// non-decreasing; the stream ends with exactly one `metrics` record.
///
/// # Errors
///
/// The first violated property, with its line number.
pub fn check_spans_jsonl(text: &str) -> Result<SpanStats, String> {
    let mut open: HashMap<u64, SpanRec> = HashMap::new();
    let mut done: Vec<(usize, SpanRec)> = Vec::new();
    let mut seen_ids: HashMap<u64, ()> = HashMap::new();
    let mut last_ts: HashMap<u64, u64> = HashMap::new();
    let mut begin_order: HashMap<u64, usize> = HashMap::new();
    let mut counters = Vec::new();
    let mut timings = Vec::new();
    let mut metrics_seen = false;
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        lines = n;
        if metrics_seen {
            return Err(format!("line {n}: records after the metrics trailer"));
        }
        let v = JsonValue::parse(line).map_err(|e| format!("line {n}: not JSON: {e}"))?;
        let ev = v
            .get("ev")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {n}: missing \"ev\""))?;
        match ev {
            "begin" => {
                let id = field_u64(&v, "id", n)?;
                let parent = field_u64(&v, "parent", n)?;
                let tid = field_u64(&v, "tid", n)?;
                let ts = field_u64(&v, "ts_us", n)?;
                if id == 0 {
                    return Err(format!("line {n}: span id 0 is reserved"));
                }
                if seen_ids.insert(id, ()).is_some() {
                    return Err(format!("line {n}: duplicate span id {id}"));
                }
                if parent != 0 && !begin_order.contains_key(&parent) {
                    return Err(format!("line {n}: span {id} parent {parent} never began"));
                }
                let prev = last_ts.entry(tid).or_insert(0);
                if ts < *prev {
                    return Err(format!("line {n}: tid {tid} timestamp went backwards"));
                }
                *prev = ts;
                begin_order.insert(id, n);
                let name = v
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("line {n}: missing \"name\""))?;
                let phase = v
                    .get("phase")
                    .and_then(JsonValue::as_str)
                    .and_then(Phase::parse)
                    .ok_or_else(|| format!("line {n}: missing/unknown \"phase\""))?;
                open.insert(
                    id,
                    SpanRec {
                        id,
                        parent,
                        name: name.to_string(),
                        phase,
                        tid,
                        begin_us: ts,
                        end_us: ts,
                        label: None,
                    },
                );
            }
            "end" => {
                let id = field_u64(&v, "id", n)?;
                let tid = field_u64(&v, "tid", n)?;
                let ts = field_u64(&v, "ts_us", n)?;
                let mut rec = open
                    .remove(&id)
                    .ok_or_else(|| format!("line {n}: end for span {id} which is not open"))?;
                if ts < rec.begin_us {
                    return Err(format!("line {n}: span {id} ends before it begins"));
                }
                let prev = last_ts.entry(tid).or_insert(0);
                if ts < *prev {
                    return Err(format!("line {n}: tid {tid} timestamp went backwards"));
                }
                *prev = ts;
                rec.end_us = ts;
                if let Some(l) = v
                    .get("fields")
                    .and_then(|f| f.get("label"))
                    .and_then(JsonValue::as_str)
                {
                    rec.label = Some(l.to_string());
                }
                done.push((begin_order[&id], rec));
            }
            "metrics" => {
                metrics_seen = true;
                if let Some(JsonValue::Obj(fields)) = v.get("counters") {
                    for (k, cv) in fields {
                        counters.push((
                            k.clone(),
                            cv.as_u64()
                                .ok_or_else(|| format!("line {n}: counter {k} not a u64"))?,
                        ));
                    }
                }
                if let Some(JsonValue::Obj(fields)) = v.get("timings") {
                    for (k, tv) in fields {
                        timings.push((
                            k.clone(),
                            ril_attacks::json::histogram_snapshot(tv).ok_or_else(|| {
                                format!("line {n}: timing {k} is not a histogram")
                            })?,
                        ));
                    }
                }
            }
            other => return Err(format!("line {n}: unknown ev {other:?}")),
        }
    }
    if !open.is_empty() {
        let mut ids: Vec<u64> = open.keys().copied().collect();
        ids.sort_unstable();
        return Err(format!("unbalanced stream: spans {ids:?} never ended"));
    }
    if !metrics_seen {
        return Err(format!(
            "missing metrics trailer (stream has {lines} lines)"
        ));
    }
    done.sort_by_key(|(order, _)| *order);
    Ok(SpanStats {
        spans: done.into_iter().map(|(_, rec)| rec).collect(),
        counters,
        timings,
    })
}

/// Validates an `EVENTS_*.jsonl` stream: every line parses, carries the
/// envelope fields, has a known kind, and timestamps are monotonically
/// non-decreasing in file order (the sink stamps them under its write
/// lock) within each run segment — the file is appended across runs, so
/// `t` resets at each `start:` lifecycle event. Returns the event count.
///
/// # Errors
///
/// The first violated property, with its line number.
pub fn check_events_jsonl(text: &str) -> Result<usize, String> {
    let mut last_t = f64::NEG_INFINITY;
    let mut count = 0usize;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        let v = JsonValue::parse(line).map_err(|e| format!("line {n}: not JSON: {e}"))?;
        let t = v
            .get("t")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("line {n}: missing \"t\""))?;
        let kind = v
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {n}: missing \"kind\""))?;
        if !matches!(kind, "run" | "cell" | "note" | "error") {
            return Err(format!("line {n}: unknown kind {kind:?}"));
        }
        let message = v
            .get("message")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {n}: missing \"message\""))?;
        // The sink appends across runs (resume history) and `t` is
        // elapsed-since-sink-open, so it restarts at each run's `start:`
        // lifecycle event. Inside a segment it must never go backwards.
        if message.starts_with("start: ") {
            last_t = f64::NEG_INFINITY;
        }
        if t < last_t {
            return Err(format!("line {n}: timestamp went backwards"));
        }
        last_t = t;
        count = n;
    }
    Ok(count)
}

/// Validates a `TRACE_*.json` Chrome trace: top-level object with a
/// `traceEvents` array whose `B`/`E` events balance per thread with
/// matching names (proper nesting — what Perfetto requires to render).
/// Returns the event count.
///
/// # Errors
///
/// Describes the first structural violation.
pub fn check_chrome_trace(text: &str) -> Result<usize, String> {
    let v = JsonValue::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("missing traceEvents array")?;
    let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let tid = ev
            .get("tid")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        match ph {
            "B" => stacks.entry(tid).or_default().push(name.to_string()),
            "E" => {
                let top = stacks
                    .entry(tid)
                    .or_default()
                    .pop()
                    .ok_or_else(|| format!("event {i}: E with empty stack on tid {tid}"))?;
                if top != name {
                    return Err(format!(
                        "event {i}: E name {name:?} does not match open span {top:?}"
                    ));
                }
            }
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!("tid {tid}: {} spans never closed", stack.len()));
        }
    }
    Ok(events.len())
}

/// Per-phase exclusive-time totals, in µs.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTotals {
    /// Encode-phase time (netlist→CNF, miter/DIP constraints, locking).
    pub encode_us: u64,
    /// Solve-phase time (the CDCL searches).
    pub solve_us: u64,
    /// Verify-phase time (key checks, error estimation, salvage scoring).
    pub verify_us: u64,
    /// Oracle-phase time (the chip answering DIP queries).
    pub oracle_us: u64,
    /// Everything else (loop bookkeeping, framework).
    pub other_us: u64,
}

impl PhaseTotals {
    fn add(&mut self, phase: Phase, us: u64) {
        match phase {
            Phase::Encode => self.encode_us += us,
            Phase::Solve => self.solve_us += us,
            Phase::Verify => self.verify_us += us,
            Phase::Oracle => self.oracle_us += us,
            _ => self.other_us += us,
        }
    }

    /// encode + solve + verify + oracle: the attributed fraction's
    /// numerator.
    pub fn attributed_us(&self) -> u64 {
        self.encode_us + self.solve_us + self.verify_us + self.oracle_us
    }

    /// Total across all buckets.
    pub fn total_us(&self) -> u64 {
        self.attributed_us() + self.other_us
    }
}

/// One cell's phase breakdown from [`breakdown`].
#[derive(Debug, Clone)]
pub struct CellBreakdown {
    /// The cell's `label` field (or its span name when unlabelled).
    pub label: String,
    /// The cell span's wall time in µs.
    pub wall_us: u64,
    /// Exclusive-time totals over the cell's subtree (including the cell
    /// span's own exclusive time, bucketed under `other`).
    pub phases: PhaseTotals,
}

impl CellBreakdown {
    /// Fraction of the cell wall attributed to encode+solve+verify+oracle.
    pub fn attributed_fraction(&self) -> f64 {
        if self.wall_us == 0 {
            return 1.0;
        }
        self.phases.attributed_us() as f64 / self.wall_us as f64
    }

    /// Anomaly tag for the report (`verify-dominated`, `unattributed`),
    /// empty when the cell looks healthy. Cached cells are near-instant
    /// and fully unattributed by construction, so only cells that took
    /// real time are flagged.
    pub fn anomaly(&self) -> &'static str {
        if self.wall_us < 10_000 {
            return "";
        }
        let wall = self.wall_us as f64;
        if self.phases.verify_us as f64 > 0.5 * wall {
            "verify-dominated"
        } else if self.attributed_fraction() < 0.5 {
            "unattributed"
        } else {
            ""
        }
    }
}

/// Aggregates validated spans into per-cell and whole-run phase
/// breakdowns. Returns `(cells, run_totals)`; experiments without `cell`
/// spans still get run totals.
pub fn breakdown(stats: &SpanStats) -> (Vec<CellBreakdown>, PhaseTotals) {
    // Exclusive time: span duration minus direct children's durations.
    let mut child_us: HashMap<u64, u64> = HashMap::new();
    for s in &stats.spans {
        if s.parent != 0 {
            *child_us.entry(s.parent).or_insert(0) += s.dur_us();
        }
    }
    let exclusive = |s: &SpanRec| -> u64 {
        s.dur_us()
            .saturating_sub(child_us.get(&s.id).copied().unwrap_or(0))
    };

    let mut run_totals = PhaseTotals::default();
    for s in &stats.spans {
        run_totals.add(s.phase, exclusive(s));
    }

    // Attribute each span's exclusive time to its nearest enclosing cell.
    let by_id: HashMap<u64, usize> = stats
        .spans
        .iter()
        .enumerate()
        .map(|(i, s)| (s.id, i))
        .collect();
    let owning_cell = |s: &SpanRec| -> Option<u64> {
        let mut s = s;
        loop {
            if s.name == "cell" {
                return Some(s.id);
            }
            s = &stats.spans[*by_id.get(&s.parent)?];
        }
    };
    let mut cells: Vec<CellBreakdown> = Vec::new();
    let mut cell_index: HashMap<u64, usize> = HashMap::new();
    for s in &stats.spans {
        if s.name == "cell" {
            cell_index.insert(s.id, cells.len());
            cells.push(CellBreakdown {
                label: s.label.clone().unwrap_or_else(|| s.name.clone()),
                wall_us: s.dur_us(),
                phases: PhaseTotals::default(),
            });
        }
    }
    for s in &stats.spans {
        if let Some(cell_id) = owning_cell(s) {
            cells[cell_index[&cell_id]]
                .phases
                .add(s.phase, exclusive(s));
        }
    }
    (cells, run_totals)
}

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
/// counters. Returns a one-line summary.
///
/// # Errors
///
/// When the directory has no span logs, or a span log fails validation.
pub fn trace_report(run_dir: &Path) -> Result<String, String> {
    let mut span_files = list_prefixed(run_dir, "SPANS_", ".jsonl")?;
    span_files.sort();
    if span_files.is_empty() {
        return Err(format!(
            "no SPANS_*.jsonl in {} — run an experiment first (RIL_TRACE=1 is the default)",
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
        if !stats.counters.is_empty() {
            let counters: Vec<String> = stats
                .counters
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            println!("counters: {}", counters.join("  "));
        }
        // Derived batch efficiency: how full the oracle's 64-lane blocks
        // ran (oracle.batch.lanes_wasted counts the empty lanes).
        let counter = |name: &str| {
            stats
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
        if let Some((_, rt)) = stats
            .timings
            .iter()
            .find(|(k, _)| k == "oracle.remote.round_trip")
        {
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
            if let Some((_, wall)) = stats.timings.iter().find(|(k, _)| k == "farm.cell.wall") {
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
/// parses, each `EVENTS_*.jsonl`, `SPANS_*.jsonl` and `TRACE_*.json`
/// passes its integrity checker. Returns a one-line summary.
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
    check(list_prefixed(run_dir, "EVENTS_", ".jsonl"), &|text| {
        check_events_jsonl(text).map(|_| ())
    });
    check(list_prefixed(run_dir, "SPANS_", ".jsonl"), &|text| {
        check_spans_jsonl(text).map(|_| ())
    });
    check(list_prefixed(run_dir, "TRACE_", ".json"), &|text| {
        check_chrome_trace(text).map(|_| ())
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

#[cfg(test)]
mod tests {
    use super::*;
    use ril_trace::Tracer;

    fn sample_stream() -> (String, String) {
        let tracer = Tracer::new();
        let root = tracer.open_root("experiment", Phase::Experiment);
        {
            let _ctx = tracer.install(root);
            let mut cell = ril_trace::span("cell", Phase::Cell);
            cell.record_str("label", "c7552/2x2/1");
            let _solve = ril_trace::span("solve", Phase::Solve);
            ril_trace::timing(
                "oracle.remote.round_trip",
                std::time::Duration::from_micros(180),
            );
        }
        tracer.close(root);
        (tracer.spans_jsonl(), tracer.chrome_trace_json())
    }

    #[test]
    fn real_streams_validate() {
        let (spans, chrome) = sample_stream();
        let stats = check_spans_jsonl(&spans).unwrap();
        assert_eq!(stats.spans.len(), 3);
        // The metrics trailer's timing histograms come back as snapshots.
        let (name, rt) = &stats.timings[0];
        assert_eq!(name, "oracle.remote.round_trip");
        assert_eq!(rt.count, 1);
        assert_eq!(rt.sum_us, 180);
        assert!(check_chrome_trace(&chrome).unwrap() >= 6);
    }

    #[test]
    fn breakdown_attributes_cell_subtree() {
        let (spans, _) = sample_stream();
        let stats = check_spans_jsonl(&spans).unwrap();
        let (cells, totals) = breakdown(&stats);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].label, "c7552/2x2/1");
        // Solve exclusive + cell exclusive sum to the cell wall.
        assert!(cells[0].phases.total_us() <= cells[0].wall_us + 1);
        assert!(totals.total_us() > 0);
    }

    #[test]
    fn oracle_spans_get_their_own_bucket() {
        let tracer = Tracer::new();
        let root = tracer.open_root("experiment", Phase::Experiment);
        {
            let _ctx = tracer.install(root);
            let _cell = ril_trace::span("cell", Phase::Cell);
            let _query = ril_trace::span("oracle_query", Phase::Oracle);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        tracer.close(root);
        let stats = check_spans_jsonl(&tracer.spans_jsonl()).unwrap();
        let (cells, totals) = breakdown(&stats);
        assert!(cells[0].phases.oracle_us >= 2000, "{:?}", cells[0].phases);
        assert_eq!(totals.oracle_us, cells[0].phases.oracle_us);
        assert!(totals.other_us < totals.oracle_us, "{totals:?}");
    }

    #[test]
    fn tampered_streams_are_rejected() {
        let (spans, _) = sample_stream();
        // Drop an end record: unbalanced.
        let dropped: Vec<&str> = spans
            .lines()
            .filter(|l| !(l.contains(r#""ev":"end""#) && l.contains(r#""id":2"#)))
            .collect();
        assert!(check_spans_jsonl(&dropped.join("\n")).is_err());
        // Truncate the metrics trailer.
        let no_metrics: Vec<&str> = spans
            .lines()
            .filter(|l| !l.contains(r#""ev":"metrics""#))
            .collect();
        assert!(check_spans_jsonl(&no_metrics.join("\n"))
            .unwrap_err()
            .contains("metrics"));
        // Corrupt a line.
        let garbled = spans.replacen("{\"ev\"", "{\"ev", 1);
        assert!(check_spans_jsonl(&garbled).is_err());
    }

    #[test]
    fn event_checker_rejects_bad_streams() {
        let good = "{\"t\":0.1,\"kind\":\"note\",\"experiment\":\"x\",\"message\":\"m\"}\n\
                    {\"t\":0.2,\"kind\":\"cell\",\"experiment\":\"x\",\"message\":\"m\"}";
        assert_eq!(check_events_jsonl(good), Ok(2));
        let backwards = "{\"t\":0.2,\"kind\":\"note\",\"experiment\":\"x\",\"message\":\"m\"}\n\
                         {\"t\":0.1,\"kind\":\"note\",\"experiment\":\"x\",\"message\":\"m\"}";
        assert!(check_events_jsonl(backwards)
            .unwrap_err()
            .contains("backwards"));
        // Appended re-runs restart the clock at their `start:` event.
        let two_runs = "{\"t\":5.0,\"kind\":\"note\",\"experiment\":\"x\",\"message\":\"done\"}\n\
                        {\"t\":0.1,\"kind\":\"note\",\"experiment\":\"x\",\"message\":\"start: again\"}\n\
                        {\"t\":0.2,\"kind\":\"cell\",\"experiment\":\"x\",\"message\":\"m\"}";
        assert_eq!(check_events_jsonl(two_runs), Ok(3));
        let bad_kind = "{\"t\":0.1,\"kind\":\"chatter\",\"experiment\":\"x\",\"message\":\"m\"}";
        assert!(check_events_jsonl(bad_kind).is_err());
    }
}
