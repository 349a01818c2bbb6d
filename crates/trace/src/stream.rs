//! Reading a span log back: the integrity check, the per-phase
//! exclusive-time attribution and the Chrome trace rendering.
//!
//! [`check_spans_jsonl`] verifies a `SPANS_*.jsonl` stream written by
//! [`crate::Tracer::spans_jsonl`] and reconstructs its spans, notes and
//! metrics trailer. [`breakdown`] buckets the spans' *exclusive* time
//! (a span's wall time minus the wall time of its direct children) into
//! encode / solve / verify / oracle / other, per cell and per run, so a
//! phase total never double-counts nested spans: the `iteration` span's
//! exclusive time is DIP-loop bookkeeping, not the `solve` span it
//! contains. [`chrome_trace_json`] renders the spans for Perfetto.

use std::collections::HashMap;

use crate::json::{self, JsonValue};
use crate::{MetricsSnapshot, NoteKind, Phase};

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
    /// The fields recorded at close, as a JSON object.
    pub fields: JsonValue,
}

impl SpanRec {
    /// Wall time in µs.
    pub fn dur_us(&self) -> u64 {
        self.end_us.saturating_sub(self.begin_us)
    }

    /// The `label` field recorded at close, if any (cells carry one).
    pub fn label(&self) -> Option<&str> {
        self.fields.get("label").and_then(JsonValue::as_str)
    }
}

/// One instant `note` or `error` record from a span stream.
#[derive(Debug, Clone)]
pub struct NoteRec {
    /// Note or error.
    pub kind: NoteKind,
    /// The span it was recorded under.
    pub parent: u64,
    /// Recording thread.
    pub tid: u64,
    /// Timestamp, µs since tracer start.
    pub ts_us: u64,
    /// The message.
    pub message: String,
}

/// What a validated span stream contains.
#[derive(Debug, Clone)]
pub struct SpanStats {
    /// All spans, in begin order.
    pub spans: Vec<SpanRec>,
    /// All notes and errors, in stream order.
    pub notes: Vec<NoteRec>,
    /// The final metrics record: counters and latency histograms, the
    /// same snapshot the serve wire carries.
    pub metrics: MetricsSnapshot,
}

fn field_u64(v: &JsonValue, key: &str, line_no: usize) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("line {line_no}: missing/invalid \"{key}\""))
}

fn field_str<'a>(v: &'a JsonValue, key: &str, line_no: usize) -> Result<&'a str, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("line {line_no}: missing \"{key}\""))
}

/// Validates a `SPANS_*.jsonl` stream and reconstructs its spans.
///
/// Checks, in order: every line is a JSON object with a known `ev` tag;
/// span ids are unique and non-zero; every `end` matches an open `begin`
/// and every `begin` is eventually ended (balance — this holds even for
/// runs that panicked, because span guards close on unwind); parents of
/// spans and notes begin before them; per-thread timestamps are
/// monotonically non-decreasing; the stream ends with exactly one
/// `metrics` record.
///
/// # Errors
///
/// The first violated property, with its line number.
pub fn check_spans_jsonl(text: &str) -> Result<SpanStats, String> {
    let mut open: HashMap<u64, SpanRec> = HashMap::new();
    let mut done: Vec<(usize, SpanRec)> = Vec::new();
    let mut notes = Vec::new();
    let mut begin_order: HashMap<u64, usize> = HashMap::new();
    let mut last_ts: HashMap<u64, u64> = HashMap::new();
    let mut metrics = None;
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        lines = n;
        if metrics.is_some() {
            return Err(format!("line {n}: records after the metrics trailer"));
        }
        let v = JsonValue::parse(line).map_err(|e| format!("line {n}: not JSON: {e}"))?;
        let ev = field_str(&v, "ev", n)?;
        if ev == "metrics" {
            metrics = Some(
                json::metrics_snapshot(&v)
                    .ok_or_else(|| format!("line {n}: malformed metrics trailer"))?,
            );
            continue;
        }
        let tid = field_u64(&v, "tid", n)?;
        let ts = field_u64(&v, "ts_us", n)?;
        let prev = last_ts.entry(tid).or_insert(0);
        if ts < *prev {
            return Err(format!("line {n}: tid {tid} timestamp went backwards"));
        }
        *prev = ts;
        match ev {
            "begin" => {
                let id = field_u64(&v, "id", n)?;
                let parent = field_u64(&v, "parent", n)?;
                if id == 0 {
                    return Err(format!("line {n}: span id 0 is reserved"));
                }
                if begin_order.contains_key(&id) {
                    return Err(format!("line {n}: duplicate span id {id}"));
                }
                if parent != 0 && !begin_order.contains_key(&parent) {
                    return Err(format!("line {n}: span {id} parent {parent} never began"));
                }
                let phase = v
                    .get("phase")
                    .and_then(JsonValue::as_str)
                    .and_then(Phase::parse)
                    .ok_or_else(|| format!("line {n}: missing/unknown \"phase\""))?;
                begin_order.insert(id, n);
                open.insert(
                    id,
                    SpanRec {
                        id,
                        parent,
                        name: field_str(&v, "name", n)?.to_string(),
                        phase,
                        tid,
                        begin_us: ts,
                        end_us: ts,
                        fields: JsonValue::Obj(Vec::new()),
                    },
                );
            }
            "end" => {
                let id = field_u64(&v, "id", n)?;
                let mut rec = open
                    .remove(&id)
                    .ok_or_else(|| format!("line {n}: end for span {id} which is not open"))?;
                if ts < rec.begin_us {
                    return Err(format!("line {n}: span {id} ends before it begins"));
                }
                rec.end_us = ts;
                if let Some(fields) = v.get("fields") {
                    rec.fields = fields.clone();
                }
                done.push((begin_order[&id], rec));
            }
            "note" | "error" => {
                let parent = field_u64(&v, "parent", n)?;
                if !begin_order.contains_key(&parent) {
                    return Err(format!("line {n}: {ev} parent {parent} never began"));
                }
                notes.push(NoteRec {
                    kind: if ev == "note" {
                        NoteKind::Note
                    } else {
                        NoteKind::Error
                    },
                    parent,
                    tid,
                    ts_us: ts,
                    message: field_str(&v, "message", n)?.to_string(),
                });
            }
            other => return Err(format!("line {n}: unknown ev {other:?}")),
        }
    }
    if !open.is_empty() {
        let mut ids: Vec<u64> = open.keys().copied().collect();
        ids.sort_unstable();
        return Err(format!("unbalanced stream: spans {ids:?} never ended"));
    }
    let metrics =
        metrics.ok_or_else(|| format!("missing metrics trailer (stream has {lines} lines)"))?;
    done.sort_by_key(|(order, _)| *order);
    Ok(SpanStats {
        spans: done.into_iter().map(|(_, rec)| rec).collect(),
        notes,
        metrics,
    })
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
                label: s.label().unwrap_or(&s.name).to_string(),
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

/// Renders validated spans as a Chrome trace-event document (`B`/`E`
/// duration events, one `pid`, real thread ids, each span's close fields
/// as its `E` event's `args`) that Perfetto and `chrome://tracing` load.
///
/// Each thread's events nest: a span's children on its own thread are
/// emitted between its `B` and its `E`, in begin order.
pub fn chrome_trace_json(stats: &SpanStats) -> String {
    let tid_of: HashMap<u64, u64> = stats.spans.iter().map(|s| (s.id, s.tid)).collect();
    let mut children: HashMap<u64, Vec<&SpanRec>> = HashMap::new();
    let mut tops = Vec::new();
    for s in &stats.spans {
        if tid_of.get(&s.parent) == Some(&s.tid) {
            children.entry(s.parent).or_default().push(s);
        } else {
            tops.push(s);
        }
    }
    fn emit(s: &SpanRec, children: &HashMap<u64, Vec<&SpanRec>>, events: &mut Vec<String>) {
        let (name, cat) = (json::escape(&s.name), s.phase.as_str());
        events.push(format!(
            r#"{{"name":"{name}","cat":"{cat}","ph":"B","pid":1,"tid":{},"ts":{}}}"#,
            s.tid, s.begin_us
        ));
        for child in children.get(&s.id).into_iter().flatten() {
            emit(child, children, events);
        }
        events.push(format!(
            r#"{{"name":"{name}","cat":"{cat}","ph":"E","pid":1,"tid":{},"ts":{},"args":{}}}"#,
            s.tid, s.end_us, s.fields
        ));
    }
    let mut events = Vec::with_capacity(2 * stats.spans.len());
    for s in tops {
        emit(s, &children, &mut events);
    }
    format!(
        r#"{{"displayTimeUnit":"ms","traceEvents":[{}]}}"#,
        events.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{span, timing, Tracer};

    /// A root span with a note, one labelled cell, a solve under it and
    /// one timing histogram.
    fn sample_stream() -> String {
        let tracer = Tracer::new();
        let root = tracer.open_root("experiment", Phase::Experiment);
        tracer.note(root, NoteKind::Note, "start: sample");
        {
            let _ctx = tracer.install(root);
            let mut cell = span("cell", Phase::Cell);
            cell.record_str("label", "c7552/2x2/1");
            let _solve = span("solve", Phase::Solve);
            timing(
                "oracle.remote.round_trip",
                std::time::Duration::from_micros(180),
            );
        }
        tracer.close(root);
        tracer.spans_jsonl()
    }

    #[test]
    fn real_streams_validate() {
        let stats = check_spans_jsonl(&sample_stream()).unwrap();
        assert_eq!(stats.spans.len(), 3);
        // The note comes back under the root span.
        assert_eq!(stats.notes.len(), 1);
        assert_eq!(stats.notes[0].kind, NoteKind::Note);
        assert_eq!(stats.notes[0].message, "start: sample");
        assert_eq!(stats.notes[0].parent, stats.spans[0].id);
        // The metrics trailer's timing histograms come back as snapshots.
        let rt = stats.metrics.timing("oracle.remote.round_trip").unwrap();
        assert_eq!(rt.count, 1);
        assert_eq!(rt.sum_us, 180);
    }

    #[test]
    fn breakdown_attributes_cell_subtree() {
        let stats = check_spans_jsonl(&sample_stream()).unwrap();
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
            let _cell = span("cell", Phase::Cell);
            let _query = span("oracle_query", Phase::Oracle);
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
        let spans = sample_stream();
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
        // A note after the metrics trailer.
        let late = r#"{"ev":"error","parent":1,"tid":1,"ts_us":999999,"message":"late"}"#;
        assert!(check_spans_jsonl(&format!("{spans}{late}\n"))
            .unwrap_err()
            .contains("after the metrics trailer"));
        // A note whose parent never began.
        let orphan = spans.replacen(
            r#""ev":"note","parent":1,"#,
            r#""ev":"note","parent":42,"#,
            1,
        );
        assert_ne!(orphan, spans);
        assert!(check_spans_jsonl(&orphan)
            .unwrap_err()
            .contains("parent 42 never began"));
    }

    #[test]
    fn chrome_trace_nests_per_thread() {
        let stats = check_spans_jsonl(&sample_stream()).unwrap();
        let doc = JsonValue::parse(&chrome_trace_json(&stats)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let order: Vec<(&str, &str)> = events
            .iter()
            .map(|e| {
                let field = |k| e.get(k).and_then(JsonValue::as_str).unwrap();
                (field("ph"), field("name"))
            })
            .collect();
        assert_eq!(
            order,
            [
                ("B", "experiment"),
                ("B", "cell"),
                ("B", "solve"),
                ("E", "solve"),
                ("E", "cell"),
                ("E", "experiment"),
            ]
        );
        // Close fields ride along as the `E` event's args.
        let label = events[4].get("args").and_then(|a| a.get("label"));
        assert_eq!(label.and_then(JsonValue::as_str), Some("c7552/2x2/1"));
    }
}
