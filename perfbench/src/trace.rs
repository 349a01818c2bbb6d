//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing here reaches inside the program: a span covers one
//! public call, and a *derived* span books a duration the program itself
//! reports (the miter solve time in an `AttackReport`) under the span of
//! the call that produced it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The benchmark's own code: pass and cell bookkeeping, the timing
/// wrapper, pattern generation. Its self time is the unattributed part
/// of a pass.
pub const BENCH: &str = "perfbench";
/// Obfuscation and morphing.
pub const CORE: &str = "ril-core";
/// The CDCL solver.
pub const SAT: &str = "ril-sat";
/// The DIP loop, the in-process oracle and key verification.
pub const ATTACKS: &str = "ril-attacks";
/// The serve codec, reactor and client.
pub const SERVE: &str = "ril-serve";
/// The farm coordinator, workers and cell cache.
pub const FARM: &str = "ril-bench";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The layer the call belongs to.
    pub layer: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Outside the timed section: set-up (locking, server start) or the
    /// checks and stats fetches after it.
    pub untimed: bool,
    /// A duration the program reported, not one timed here.
    pub derived: bool,
}

/// A per-thread span recorder. Threads each keep their own and the
/// owner folds them in with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer::starting_at(Instant::now())
    }

    /// An empty recorder sharing another recorder's clock origin.
    #[must_use]
    pub fn starting_at(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// The clock origin, for recorders on other threads.
    #[must_use]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn open_span(&self, name: &'static str, layer: &'static str, untimed: bool) -> usize {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        let parent = self.open.borrow().last().copied();
        let inherited = parent.is_some_and(|p| spans[p].untimed);
        spans.push(Span {
            name,
            layer,
            parent,
            start_ns: nanos(self.origin.elapsed()),
            dur_ns: 0,
            untimed: untimed || inherited,
            derived: false,
        });
        self.open.borrow_mut().push(id);
        id
    }

    fn close_span(&self, id: usize) {
        let end = nanos(self.origin.elapsed());
        let mut spans = self.spans.borrow_mut();
        spans[id].dur_ns = end.saturating_sub(spans[id].start_ns);
        let mut open = self.open.borrow_mut();
        if let Some(pos) = open.iter().rposition(|&o| o == id) {
            open.truncate(pos);
        }
    }

    /// Books `dur`, reported by the program, as a child of the innermost
    /// open span.
    pub fn derived(&self, name: &'static str, layer: &'static str, dur: Duration) {
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let (start_ns, untimed) =
            parent.map_or((0, false), |p| (spans[p].start_ns, spans[p].untimed));
        spans.push(Span {
            name,
            layer,
            parent,
            start_ns,
            dur_ns: nanos(dur),
            untimed,
            derived: true,
        });
    }

    /// Moves another thread's spans under this recorder's innermost open
    /// span.
    pub fn absorb(&self, other: Tracer) {
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let base = spans.len();
        for mut s in other.spans.into_inner() {
            s.parent = s.parent.map(|p| p + base).or(parent);
            spans.push(s);
        }
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Self time per layer, in seconds, of the timed spans: a
    /// span's duration minus the part its children cover.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in spans.iter().zip(child_ns) {
            if s.untimed {
                continue;
            }
            let own = s.dur_ns.saturating_sub(covered) as f64 / 1e9;
            *out.entry(s.layer).or_insert(0.0) += own;
        }
        out
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self, pass: usize) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"pass":{pass},"id":{id},"parent":{parent},"name":"{}","layer":"{}","start_ns":{},"dur_ns":{},"untimed":{},"derived":{}}}"#,
                s.name, s.layer, s.start_ns, s.dur_ns, s.untimed, s.derived
            );
        }
        out
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Closes its span on drop. Inert when tracing is off.
pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
    id: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            t.close_span(self.id);
        }
    }
}

/// Opens a span in the timed section (no-op without a tracer).
#[must_use]
pub fn span<'a>(
    tracer: Option<&'a Tracer>,
    name: &'static str,
    layer: &'static str,
) -> SpanGuard<'a> {
    let id = tracer.map_or(0, |t| t.open_span(name, layer, false));
    SpanGuard { tracer, id }
}

/// Opens a span outside the timed section (set-up, checks, stats
/// fetches): excluded from the layer attribution.
#[must_use]
pub fn untimed_span<'a>(
    tracer: Option<&'a Tracer>,
    name: &'static str,
    layer: &'static str,
) -> SpanGuard<'a> {
    let id = tracer.map_or(0, |t| t.open_span(name, layer, true));
    SpanGuard { tracer, id }
}

/// Books a program-reported duration (no-op without a tracer).
pub fn derived(tracer: Option<&Tracer>, name: &'static str, layer: &'static str, dur: Duration) {
    if let Some(t) = tracer {
        t.derived(name, layer, dur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_skips_setup() {
        let t = Tracer::new();
        {
            let _pass = span(Some(&t), "pass", BENCH);
            {
                let _lock = untimed_span(Some(&t), "lock", CORE);
                std::thread::sleep(Duration::from_millis(5));
            }
            let _attack = span(Some(&t), "attack", ATTACKS);
            std::thread::sleep(Duration::from_millis(20));
            t.derived("sat.solve", SAT, Duration::from_millis(15));
        }
        let st = t.self_times();
        assert!((st[SAT] - 0.015).abs() < 1e-9);
        assert!(st[ATTACKS] >= 0.004 && st[ATTACKS] < 0.015, "{st:?}");
        assert!(!st.contains_key(CORE), "set-up spans are not attributed");
        // The pass's own time covers its set-up child too, so its self
        // time excludes the lock span's duration.
        assert!(st[BENCH] < 0.003, "{st:?}");
    }

    #[test]
    fn absorbed_spans_hang_under_the_open_span() {
        let t = Tracer::new();
        let _pass = span(Some(&t), "pass", BENCH);
        let other = Tracer::starting_at(t.origin());
        drop(span(Some(&other), "request", SERVE));
        t.absorb(other);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].layer, SERVE);
    }
}
