//! The span log writer: one JSONL object per span `begin`/`end` event
//! (so open/close ordering and balance are checkable), one per instant
//! `note`/`error` record, and one final `metrics` record with every
//! counter and timing histogram. [`crate::stream`] reads it back.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::json::escape;
use crate::span::{FieldValue, TraceEvent, Tracer};

fn field_value_into(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::F64(f) if f.is_finite() => {
            let _ = write!(out, "{f}");
        }
        FieldValue::F64(_) => out.push_str("null"),
        FieldValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        FieldValue::Str(s) => {
            let _ = write!(out, r#""{}""#, escape(s));
        }
    }
}

fn fields_object_into(out: &mut String, fields: &[(&'static str, FieldValue)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":");
        field_value_into(out, v);
    }
    out.push('}');
}

impl Tracer {
    /// Renders the JSONL span log. Line kinds:
    ///
    /// ```text
    /// {"ev":"begin","id":1,"parent":0,"name":"experiment","phase":"experiment","tid":1,"ts_us":0}
    /// {"ev":"note","parent":1,"tid":1,"ts_us":3,"message":"start: …"}
    /// {"ev":"end","id":1,"tid":1,"ts_us":152,"fields":{"cells":4}}
    /// {"ev":"metrics","counters":{...},"timings":{"sat.solve_wall":{"count":9,...}}}
    /// ```
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        self.with_events(|events| {
            for ev in events {
                match ev {
                    TraceEvent::Begin {
                        id,
                        parent,
                        name,
                        phase,
                        tid,
                        ts_us,
                    } => {
                        let _ = write!(
                            out,
                            r#"{{"ev":"begin","id":{id},"parent":{parent},"name":"{name}","phase":"{}","tid":{tid},"ts_us":{ts_us}}}"#,
                            phase.as_str()
                        );
                        out.push('\n');
                    }
                    TraceEvent::End {
                        id,
                        tid,
                        ts_us,
                        fields,
                    } => {
                        let _ = write!(out, r#"{{"ev":"end","id":{id},"tid":{tid},"ts_us":{ts_us},"fields":"#);
                        fields_object_into(&mut out, fields);
                        out.push_str("}\n");
                    }
                    TraceEvent::Note {
                        kind,
                        parent,
                        tid,
                        ts_us,
                        message,
                    } => {
                        let _ = writeln!(
                            out,
                            r#"{{"ev":"{}","parent":{parent},"tid":{tid},"ts_us":{ts_us},"message":"{}"}}"#,
                            kind.as_str(),
                            escape(message)
                        );
                    }
                }
            }
        });
        out.push_str(&self.metrics_jsonl_line());
        out
    }

    /// The final `metrics` JSONL record (with trailing newline). The
    /// `counters`/`timings` fields share their JSON shape with
    /// [`crate::metrics::MetricsSnapshot::to_json`].
    fn metrics_jsonl_line(&self) -> String {
        let mut out = String::from(r#"{"ev":"metrics","#);
        self.metrics().snapshot().json_fields_into(&mut out);
        out.push_str("}\n");
        out
    }

    /// Writes [`Tracer::spans_jsonl`] to `path`, creating parent
    /// directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_spans_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.spans_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use crate::span::{span, NoteKind, Phase, Tracer};
    use std::time::Duration;

    fn traced() -> Tracer {
        let tracer = Tracer::new();
        let root = tracer.open_root("experiment", Phase::Experiment);
        {
            let _ctx = tracer.install(root);
            let mut sp = span("solve", Phase::Solve);
            sp.record_u64("conflicts", 7);
            sp.record_str("outcome", "sat \"ok\"");
            sp.record_f64("ratio", 0.5);
            sp.record_bool("cached", false);
            tracer.note(root, NoteKind::Error, "cell \"x\" failed");
        }
        tracer.metrics().counter_add("sat.solves", 1);
        tracer
            .metrics()
            .record_timing("sat.solve_wall", Duration::from_micros(42));
        tracer.close(root);
        tracer
    }

    #[test]
    fn jsonl_has_balanced_begin_end_plus_metrics() {
        let out = traced().spans_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 6); // 2 begins + 2 ends + note + metrics
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains(r#""ev":"begin""#))
                .count(),
            2
        );
        assert_eq!(
            lines.iter().filter(|l| l.contains(r#""ev":"end""#)).count(),
            2
        );
        assert!(lines[2].starts_with(r#"{"ev":"error","parent":1,"#));
        assert!(lines[2].ends_with(r#""message":"cell \"x\" failed"}"#));
        assert!(lines[5].contains(r#""ev":"metrics""#));
        assert!(lines[5].contains(r#""sat.solves":1"#));
        assert!(lines[5].contains(r#""sat.solve_wall":{"count":1"#));
        // Escaping of string fields.
        assert!(out.contains(r#""outcome":"sat \"ok\"""#), "{out}");
    }

    #[test]
    fn disabled_tracer_exports_empty_documents() {
        let tracer = Tracer::disabled();
        let root = tracer.open_root("experiment", Phase::Experiment);
        tracer.close(root);
        assert_eq!(tracer.spans_jsonl().lines().count(), 1); // metrics only
    }

    #[test]
    fn non_finite_floats_export_as_null() {
        let tracer = Tracer::new();
        let root = tracer.open_root("experiment", Phase::Experiment);
        {
            let _ctx = tracer.install(root);
            let mut sp = span("x", Phase::Other);
            sp.record_f64("bad", f64::NAN);
        }
        tracer.close(root);
        assert!(tracer.spans_jsonl().contains(r#""bad":null"#));
    }
}
