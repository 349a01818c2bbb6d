//! Spans, the tracer, and thread-local context propagation.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::metrics::Metrics;

/// The span taxonomy: what layer of the system a span belongs to.
///
/// `Experiment`, `Cell`, `Attack` and `Iteration` are *structural* (they
/// show where in the hierarchy work happened); `Encode`, `Solve`,
/// `Verify` and `Oracle` are the *cost phases* the per-phase breakdown
/// buckets time into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// One experiment run (the trace root).
    Experiment,
    /// One sweep cell (lock + attack + scoring).
    Cell,
    /// One attack invocation (satattack, appsat, scansat, removal).
    Attack,
    /// One DIP iteration of an oracle-guided attack.
    Iteration,
    /// Problem construction: obfuscation, miter building, CNF encoding.
    Encode,
    /// A SAT solve call (DIP search, key extraction, or equivalence
    /// miter).
    Solve,
    /// Confirmation work: error estimation, ground-truth key checks.
    Verify,
    /// Oracle access: the chip answering an attack's queries, local or
    /// over the wire.
    Oracle,
    /// Anything else (loop bookkeeping, worker scaffolding, …).
    Other,
}

impl Phase {
    /// The lowercase tag used in both exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Experiment => "experiment",
            Phase::Cell => "cell",
            Phase::Attack => "attack",
            Phase::Iteration => "iteration",
            Phase::Encode => "encode",
            Phase::Solve => "solve",
            Phase::Verify => "verify",
            Phase::Oracle => "oracle",
            Phase::Other => "other",
        }
    }

    /// Parses the tag back (for trace post-processors).
    pub fn parse(s: &str) -> Option<Phase> {
        Some(match s {
            "experiment" => Phase::Experiment,
            "cell" => Phase::Cell,
            "attack" => Phase::Attack,
            "iteration" => Phase::Iteration,
            "encode" => Phase::Encode,
            "solve" => Phase::Solve,
            "verify" => Phase::Verify,
            "oracle" => Phase::Oracle,
            "other" => Phase::Other,
            _ => return None,
        })
    }
}

/// A value attached to a span at close time.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Float (non-finite values export as `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (escaped on export).
    Str(String),
}

/// The kind of an instant record: a note, or a recoverable error. Both
/// hang under a span and carry a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoteKind {
    /// Informational (run lifecycle, progress).
    Note,
    /// A recoverable failure (the run continues).
    Error,
}

impl NoteKind {
    /// The record's `ev` tag.
    pub fn as_str(self) -> &'static str {
        match self {
            NoteKind::Note => "note",
            NoteKind::Error => "error",
        }
    }
}

/// Identifier of an open span. `SpanId::NONE` (id 0) marks "no span" —
/// the root's parent, and everything a disabled tracer hands out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub(crate) u64);

impl SpanId {
    /// The null span id.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is the null id.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The raw id (0 = none).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// One record in the trace buffer. Begin and end are separate events so
/// the JSONL export preserves real open/close ordering (and so an
/// integrity checker can verify the pairs balance).
#[derive(Debug)]
pub(crate) enum TraceEvent {
    Begin {
        id: u64,
        parent: u64,
        name: &'static str,
        phase: Phase,
        tid: u64,
        ts_us: u64,
    },
    End {
        id: u64,
        tid: u64,
        ts_us: u64,
        fields: Vec<(&'static str, FieldValue)>,
    },
    Note {
        kind: NoteKind,
        parent: u64,
        tid: u64,
        ts_us: u64,
        message: String,
    },
}

#[derive(Debug)]
struct Inner {
    enabled: bool,
    start: Instant,
    next_id: AtomicU64,
    events: Mutex<Vec<TraceEvent>>,
    metrics: Metrics,
}

/// A handle to one trace: a shared event buffer plus a metrics registry.
/// Cloning is cheap (`Arc`); clones all feed the same trace.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

/// Stable small thread ids for the exporters (`ThreadId` has no stable
/// integer form). Assigned on first use per thread, process-wide.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// The context stack: (tracer, open span) pairs. The top is the
    /// parent for [`span`] calls on this thread.
    static CONTEXT: RefCell<Vec<(Tracer, u64)>> = const { RefCell::new(Vec::new()) };
}

fn tid() -> u64 {
    TID.with(|t| *t)
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A fresh, enabled tracer.
    pub fn new() -> Tracer {
        Tracer::with_enabled(true)
    }

    /// A tracer that records nothing: every open returns [`SpanId::NONE`],
    /// [`Tracer::install`] installs nothing, and the span log holds only
    /// its metrics trailer. Untraced callers (unit-test run contexts,
    /// untraced sweeps) pay one branch per span.
    pub fn disabled() -> Tracer {
        Tracer::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Tracer {
        Tracer {
            inner: Arc::new(Inner {
                enabled,
                start: Instant::now(),
                next_id: AtomicU64::new(1),
                events: Mutex::new(Vec::new()),
                metrics: Metrics::new(),
            }),
        }
    }

    /// Microseconds since the tracer was created.
    fn now_us(&self) -> u64 {
        self.inner.start.elapsed().as_micros() as u64
    }

    fn push_event(&self, ev: TraceEvent) {
        self.inner.events.lock().expect("trace buffer").push(ev);
    }

    pub(crate) fn with_events<R>(&self, f: impl FnOnce(&[TraceEvent]) -> R) -> R {
        f(&self.inner.events.lock().expect("trace buffer"))
    }

    /// The tracer's metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Opens a span with no parent — the experiment root. The caller owns
    /// closing it with [`Tracer::close`] (an explicit handle rather than a
    /// guard, so it can outlive a `catch_unwind` boundary).
    pub fn open_root(&self, name: &'static str, phase: Phase) -> SpanId {
        SpanId(self.open_raw(0, name, phase))
    }

    fn open_raw(&self, parent: u64, name: &'static str, phase: Phase) -> u64 {
        if !self.inner.enabled {
            return 0;
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.push_event(TraceEvent::Begin {
            id,
            parent,
            name,
            phase,
            tid: tid(),
            ts_us: self.now_us(),
        });
        id
    }

    /// Closes an explicitly opened span with no extra fields.
    pub fn close(&self, id: SpanId) {
        self.close_with(id, Vec::new());
    }

    /// Closes an explicitly opened span, attaching `fields`.
    pub fn close_with(&self, id: SpanId, fields: Vec<(&'static str, FieldValue)>) {
        if id.is_none() || !self.inner.enabled {
            return;
        }
        self.push_event(TraceEvent::End {
            id: id.0,
            tid: tid(),
            ts_us: self.now_us(),
            fields,
        });
    }

    /// Records an instant `note` or `error` under the open span `parent`.
    /// No-op for disabled tracers and [`SpanId::NONE`].
    pub fn note(&self, parent: SpanId, kind: NoteKind, message: &str) {
        if parent.is_none() || !self.inner.enabled {
            return;
        }
        self.push_event(TraceEvent::Note {
            kind,
            parent: parent.0,
            tid: tid(),
            ts_us: self.now_us(),
            message: message.to_string(),
        });
    }

    /// Installs `(self, parent)` as the current thread's trace context
    /// until the returned guard drops: [`span`] calls on this thread
    /// become children of `parent`. This is how sweep worker threads join
    /// the experiment's trace. No-op for disabled tracers.
    pub fn install(&self, parent: SpanId) -> ContextGuard {
        if !self.inner.enabled {
            return ContextGuard { pushed: false };
        }
        CONTEXT.with(|c| c.borrow_mut().push((self.clone(), parent.0)));
        ContextGuard { pushed: true }
    }
}

/// Pops the thread's trace context on drop (see [`Tracer::install`]).
#[must_use = "dropping the guard immediately uninstalls the context"]
#[derive(Debug)]
pub struct ContextGuard {
    pushed: bool,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if self.pushed {
            CONTEXT.with(|c| {
                c.borrow_mut().pop();
            });
        }
    }
}

#[derive(Debug)]
struct SpanState {
    tracer: Tracer,
    id: u64,
    fields: Vec<(&'static str, FieldValue)>,
}

/// An open span. Closes (and pops the thread context it pushed) on drop —
/// including during panic unwinding, which is what keeps span logs
/// balanced when an experiment dies under `catch_unwind`.
#[must_use = "dropping the span immediately closes it"]
#[derive(Debug)]
pub struct Span {
    state: Option<SpanState>,
}

impl Span {
    /// A span that records nothing (no tracer in scope).
    pub fn noop() -> Span {
        Span { state: None }
    }

    /// Whether this span actually records. Use to skip field formatting
    /// work when tracing is off.
    pub fn is_active(&self) -> bool {
        self.state.is_some()
    }

    /// This span's id ([`SpanId::NONE`] for no-op spans).
    pub fn id(&self) -> SpanId {
        SpanId(self.state.as_ref().map_or(0, |s| s.id))
    }

    /// Attaches an integer field (emitted on close).
    pub fn record_u64(&mut self, key: &'static str, value: u64) {
        if let Some(s) = &mut self.state {
            s.fields.push((key, FieldValue::U64(value)));
        }
    }

    /// Attaches a float field (emitted on close).
    pub fn record_f64(&mut self, key: &'static str, value: f64) {
        if let Some(s) = &mut self.state {
            s.fields.push((key, FieldValue::F64(value)));
        }
    }

    /// Attaches a boolean field (emitted on close).
    pub fn record_bool(&mut self, key: &'static str, value: bool) {
        if let Some(s) = &mut self.state {
            s.fields.push((key, FieldValue::Bool(value)));
        }
    }

    /// Attaches a string field (emitted on close).
    pub fn record_str(&mut self, key: &'static str, value: impl Into<String>) {
        if let Some(s) = &mut self.state {
            s.fields.push((key, FieldValue::Str(value.into())));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(s) = self.state.take() {
            CONTEXT.with(|c| {
                c.borrow_mut().pop();
            });
            s.tracer.close_with(SpanId(s.id), s.fields);
        }
    }
}

/// Opens a child span of the current thread's trace context, or a no-op
/// span when no context is installed. This is the only call the deep
/// layers (solver, attacks) need.
pub fn span(name: &'static str, phase: Phase) -> Span {
    let Some((tracer, parent)) = top() else {
        return Span::noop();
    };
    let id = tracer.open_raw(parent, name, phase);
    CONTEXT.with(|c| c.borrow_mut().push((tracer.clone(), id)));
    Span {
        state: Some(SpanState {
            tracer,
            id,
            fields: Vec::new(),
        }),
    }
}

/// The current thread's trace context, if any: its tracer and the span
/// a new [`span`] would open under.
pub fn current() -> Option<(Tracer, SpanId)> {
    top().map(|(t, id)| (t, SpanId(id)))
}

fn top() -> Option<(Tracer, u64)> {
    CONTEXT.with(|c| c.borrow().last().cloned())
}

/// Bumps a named monotonic counter on the current thread's tracer (no-op
/// without one).
pub fn counter(name: &str, delta: u64) {
    if let Some((tracer, _)) = top() {
        tracer.metrics().counter_add(name, delta);
    }
}

/// Records a duration into a named timing histogram on the current
/// thread's tracer (no-op without one).
pub fn timing(name: &str, wall: Duration) {
    if let Some((tracer, _)) = top() {
        tracer.metrics().record_timing(name, wall);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event_summary(tracer: &Tracer) -> Vec<(String, u64)> {
        tracer.with_events(|evs| {
            evs.iter()
                .map(|e| match e {
                    TraceEvent::Begin { id, name, .. } => (format!("B:{name}"), *id),
                    TraceEvent::End { id, .. } => ("E".to_string(), *id),
                    TraceEvent::Note { parent, .. } => ("N".to_string(), *parent),
                })
                .collect()
        })
    }

    #[test]
    fn spans_nest_and_balance() {
        let tracer = Tracer::new();
        let root = tracer.open_root("experiment", Phase::Experiment);
        assert!(!root.is_none());
        {
            let _ctx = tracer.install(root);
            let outer = span("attack", Phase::Attack);
            assert!(outer.is_active());
            {
                let mut inner = span("solve", Phase::Solve);
                inner.record_u64("conflicts", 3);
                assert_ne!(inner.id(), outer.id());
            }
        }
        tracer.close(root);
        let evs = event_summary(&tracer);
        assert_eq!(
            evs.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            vec!["B:experiment", "B:attack", "B:solve", "E", "E", "E"]
        );
        // Children close before parents: end order is solve, attack, root.
        assert_eq!(evs[3].1, evs[2].1);
        assert_eq!(evs[4].1, evs[1].1);
        assert_eq!(evs[5].1, evs[0].1);
    }

    #[test]
    fn parent_linkage_follows_context() {
        let tracer = Tracer::new();
        let root = tracer.open_root("experiment", Phase::Experiment);
        let _ctx = tracer.install(root);
        let cell = span("cell", Phase::Cell);
        let child = span("solve", Phase::Solve);
        let (cell_parent, child_parent) = tracer.with_events(|evs| {
            let parent_of = |target: u64| {
                evs.iter()
                    .find_map(|e| match e {
                        TraceEvent::Begin { id, parent, .. } if *id == target => Some(*parent),
                        _ => None,
                    })
                    .unwrap()
            };
            (parent_of(cell.id().raw()), parent_of(child.id().raw()))
        });
        assert_eq!(cell_parent, root.raw());
        assert_eq!(child_parent, cell.id().raw());
    }

    #[test]
    fn no_context_means_noop() {
        assert!(current().is_none());
        let sp = span("solve", Phase::Solve);
        assert!(!sp.is_active());
        assert!(sp.id().is_none());
        counter("x", 1); // must not panic
        timing("y", Duration::from_millis(1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        let root = tracer.open_root("experiment", Phase::Experiment);
        assert!(root.is_none());
        {
            let _ctx = tracer.install(root);
            assert!(current().is_none());
            let sp = span("solve", Phase::Solve);
            assert!(!sp.is_active());
        }
        tracer.close(root);
        assert_eq!(tracer.with_events(|e| e.len()), 0);
    }

    #[test]
    fn spans_balance_across_panic() {
        let tracer = Tracer::new();
        let root = tracer.open_root("experiment", Phase::Experiment);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ctx = tracer.install(root);
            let _sp = span("cell", Phase::Cell);
            let _inner = span("solve", Phase::Solve);
            panic!("boom");
        }));
        assert!(result.is_err());
        tracer.close(root);
        // Unwinding dropped the guards: begins and ends balance, and the
        // thread context is clean.
        let (begins, ends) = tracer.with_events(|evs| {
            let b = evs
                .iter()
                .filter(|e| matches!(e, TraceEvent::Begin { .. }))
                .count();
            (b, evs.len() - b)
        });
        assert_eq!(begins, 3);
        assert_eq!(ends, 3);
        assert!(current().is_none());
    }

    #[test]
    fn cross_thread_spans_share_one_trace() {
        let tracer = Tracer::new();
        let root = tracer.open_root("experiment", Phase::Experiment);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _ctx = tracer.install(root);
                    let mut sp = span("cell", Phase::Cell);
                    sp.record_bool("worker", true);
                    let _child = span("solve", Phase::Solve);
                });
            }
        });
        tracer.close(root);
        let begins = tracer.with_events(|evs| {
            evs.iter()
                .filter(|e| matches!(e, TraceEvent::Begin { .. }))
                .count()
        });
        assert_eq!(begins, 1 + 4 * 2);
        // Distinct threads got distinct tids.
        let tids: std::collections::HashSet<u64> = tracer.with_events(|evs| {
            evs.iter()
                .filter_map(|e| match e {
                    TraceEvent::Begin {
                        name, tid, phase, ..
                    } if *name == "cell" && *phase == Phase::Cell => Some(*tid),
                    _ => None,
                })
                .collect()
        });
        assert_eq!(tids.len(), 4);
    }

    #[test]
    fn phase_tags_round_trip() {
        for phase in [
            Phase::Experiment,
            Phase::Cell,
            Phase::Attack,
            Phase::Iteration,
            Phase::Encode,
            Phase::Solve,
            Phase::Verify,
            Phase::Oracle,
            Phase::Other,
        ] {
            assert_eq!(Phase::parse(phase.as_str()), Some(phase));
        }
        assert_eq!(Phase::parse("bogus"), None);
    }
}
