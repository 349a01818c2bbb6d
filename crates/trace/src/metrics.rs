//! Monotonic counters and timing histograms.
//!
//! The registry is "lock-free-ish": name lookup takes a short
//! `RwLock` read, the increment itself is a plain atomic. Registering a
//! new name (first touch) takes the write lock once. Histograms bucket
//! durations by the power of two of their microsecond count, which is
//! plenty of resolution for "where did the solve time distribution move"
//! questions at zero allocation cost.
//!
//! Names are owned `String`s so dynamically-labelled metrics (the serve
//! layer's per-chip `chip.3.query.latency`) coexist with the `&'static`
//! names the attack/SAT layers use; the static callers pay one
//! allocation on first touch only. [`Metrics::scoped`] packages the
//! labelling convention, and [`Metrics::snapshot`] freezes the whole
//! registry into a serializable [`MetricsSnapshot`] — the payload the
//! serve layer ships over the wire in its `Stats` response.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Number of log₂ buckets: bucket `b` counts durations in
/// `[2^(b-1), 2^b)` microseconds (bucket 0 is `< 1 µs`), so 40 buckets
/// span sub-microsecond to ~2 weeks.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A log₂-bucketed timing histogram with atomic buckets.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Records one duration.
    pub fn record(&self, wall: Duration) {
        let us = wall.as_micros().min(u128::from(u64::MAX)) as u64;
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
        self.buckets[Self::bucket_index(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// The bucket a `us`-microsecond duration lands in.
    fn bucket_index(us: u64) -> usize {
        ((64 - us.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// A consistent-enough copy for reporting (relaxed reads; exact only
    /// once recording has quiesced).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then(|| (upper_bound_us(i), n))
                })
                .collect(),
        }
    }
}

/// Exclusive upper bound (µs) of bucket `i`.
fn upper_bound_us(i: usize) -> u64 {
    1u64 << i
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Recorded durations.
    pub count: u64,
    /// Sum of all recorded durations, microseconds.
    pub sum_us: u64,
    /// Largest recorded duration, microseconds.
    pub max_us: u64,
    /// Non-empty buckets as `(exclusive upper bound µs, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Estimated `q`-quantile in microseconds (`q` clamped to `[0, 1]`;
    /// 0 when empty).
    ///
    /// The target rank `q·count` is located in the bucket prefix sums,
    /// then interpolated **log-linearly** inside its bucket: a bucket
    /// `[lo, 2·lo)` is modelled as log-uniform, so a fraction `f`
    /// through the bucket's mass maps to `lo · 2^f`. That matches the
    /// bucketing (each bucket spans one octave) and keeps relative error
    /// bounded by the bucket width: the estimate lands in the same
    /// bucket as the exact sample at that rank, so it is within a factor
    /// of 2 of it (±1 µs in the sub-microsecond bucket, which is
    /// interpolated linearly). Estimates are clamped to the observed
    /// maximum.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for &(hi, n) in &self.buckets {
            let before = cum;
            cum += n;
            if cum as f64 >= rank {
                let f = ((rank - before as f64) / n as f64).clamp(0.0, 1.0);
                let est = if hi <= 1 {
                    // Bucket 0 is [0, 1) µs: no octave to log-interpolate.
                    f
                } else {
                    (hi as f64 / 2.0) * f64::powf(2.0, f)
                };
                return est.min(self.max_us as f64);
            }
        }
        self.max_us as f64
    }

    /// Estimated median, microseconds.
    pub fn p50_us(&self) -> f64 {
        self.quantile_us(0.50)
    }

    /// Estimated 90th percentile, microseconds.
    pub fn p90_us(&self) -> f64 {
        self.quantile_us(0.90)
    }

    /// Estimated 99th percentile, microseconds.
    pub fn p99_us(&self) -> f64 {
        self.quantile_us(0.99)
    }

    /// Estimated 99.9th percentile, microseconds.
    pub fn p999_us(&self) -> f64 {
        self.quantile_us(0.999)
    }

    /// Appends this snapshot as a JSON object:
    /// `{"count":N,"sum_us":N,"max_us":N,"buckets":[[bound,n],...]}`.
    pub fn json_into(&self, out: &mut String) {
        let _ = write!(
            out,
            r#"{{"count":{},"sum_us":{},"max_us":{},"buckets":["#,
            self.count, self.sum_us, self.max_us
        );
        for (j, (bound, n)) in self.buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{bound},{n}]");
        }
        out.push_str("]}");
    }
}

/// A named registry of counters and timing histograms.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: RwLock<HashMap<String, Arc<AtomicU64>>>,
    timings: RwLock<HashMap<String, Arc<Histogram>>>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `delta` to the named counter, creating it on first touch.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(c) = self.counters.read().expect("counter registry").get(name) {
            c.fetch_add(delta, Ordering::Relaxed);
            return;
        }
        self.counters
            .write()
            .expect("counter registry")
            .entry(name.to_string())
            .or_default()
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .read()
            .expect("counter registry")
            .get(name)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Records a duration into the named histogram, creating it on first
    /// touch.
    pub fn record_timing(&self, name: &str, wall: Duration) {
        if let Some(h) = self.timings.read().expect("timing registry").get(name) {
            h.record(wall);
            return;
        }
        self.timings
            .write()
            .expect("timing registry")
            .entry(name.to_string())
            .or_default()
            .record(wall);
    }

    /// Snapshot of a single named histogram (`None` if never touched) —
    /// the histogram peer of [`Metrics::counter`], so reporting a known
    /// name doesn't scan the full sorted [`Metrics::timings`] vec.
    pub fn timing(&self, name: &str) -> Option<HistogramSnapshot> {
        self.timings
            .read()
            .expect("timing registry")
            .get(name)
            .map(|h| h.snapshot())
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .counters
            .read()
            .expect("counter registry")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// All timing histograms, sorted by name.
    pub fn timings(&self) -> Vec<(String, HistogramSnapshot)> {
        let mut out: Vec<(String, HistogramSnapshot)> = self
            .timings
            .read()
            .expect("timing registry")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// A labelled view: every metric recorded through the scope is
    /// prefixed `"<prefix>.<name>"`, which is how per-chip serve metrics
    /// (`chip.3.query.latency`) share the registry with global names.
    pub fn scoped(&self, prefix: impl Into<String>) -> MetricsScope<'_> {
        MetricsScope {
            metrics: self,
            prefix: prefix.into(),
        }
    }

    /// Freezes every counter and histogram into one serializable value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters(),
            timings: self.timings(),
        }
    }
}

/// A prefix-labelled view of a [`Metrics`] registry
/// (see [`Metrics::scoped`]).
#[derive(Debug)]
pub struct MetricsScope<'a> {
    metrics: &'a Metrics,
    prefix: String,
}

impl MetricsScope<'_> {
    fn full(&self, name: &str) -> String {
        format!("{}.{}", self.prefix, name)
    }

    /// Adds `delta` to the scoped counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.metrics.counter_add(&self.full(name), delta);
    }

    /// Current value of the scoped counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counter(&self.full(name))
    }

    /// Records a duration into the scoped histogram.
    pub fn record_timing(&self, name: &str, wall: Duration) {
        self.metrics.record_timing(&self.full(name), wall);
    }

    /// Snapshot of the scoped histogram (`None` if never touched).
    pub fn timing(&self, name: &str) -> Option<HistogramSnapshot> {
        self.metrics.timing(&self.full(name))
    }
}

/// A point-in-time copy of a whole [`Metrics`] registry: every counter
/// and every histogram, both sorted by name. This is the unit the serve
/// layer ships in its `Stats` wire response and the trace exporter
/// writes as the final JSONL `metrics` record.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// All counters as `(name, value)`, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// All histograms as `(name, snapshot)`, sorted by name.
    pub timings: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// True when no counter and no histogram was ever touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.timings.is_empty()
    }

    /// Value of a counter (0 when absent — same contract as
    /// [`Metrics::counter`]).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .map_or(0, |i| self.counters[i].1)
    }

    /// A named histogram (`None` when absent).
    pub fn timing(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.timings
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| &self.timings[i].1)
    }

    /// Appends the two JSON fields
    /// `"counters":{...},"timings":{...}` (no surrounding braces), the
    /// shared shape of the wire `Stats` payload and the JSONL `metrics`
    /// trailer.
    pub fn json_fields_into(&self, out: &mut String) {
        out.push_str(r#""counters":{"#);
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, r#""{}":{value}"#, crate::json::escape(name));
        }
        out.push_str(r#"},"timings":{"#);
        for (i, (name, snap)) in self.timings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, r#""{}":"#, crate::json::escape(name));
            snap.json_into(out);
        }
        out.push('}');
    }

    /// Renders `{"counters":{...},"timings":{...}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        self.json_fields_into(&mut out);
        out.push('}');
        out
    }
}

#[cfg(test)]
impl HistogramSnapshot {
    /// Mean duration in microseconds (0 when empty).
    fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        assert_eq!(m.counter("sat.solves"), 0);
        m.counter_add("sat.solves", 2);
        m.counter_add("sat.solves", 3);
        m.counter_add("sat.conflicts", 1);
        assert_eq!(m.counter("sat.solves"), 5);
        assert_eq!(
            m.counters(),
            vec![
                ("sat.conflicts".to_string(), 1),
                ("sat.solves".to_string(), 5)
            ]
        );
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::default();
        h.record(Duration::from_micros(0)); // bucket 0: < 1 µs
        h.record(Duration::from_micros(1)); // bucket 1: [1, 2)
        h.record(Duration::from_micros(3)); // bucket 2: [2, 4)
        h.record(Duration::from_micros(3));
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum_us, 7);
        assert_eq!(snap.max_us, 3);
        assert_eq!(snap.buckets, vec![(1, 1), (2, 1), (4, 2)]);
        assert!((snap.mean_us() - 1.75).abs() < 1e-9);
    }

    #[test]
    fn histogram_clamps_huge_durations() {
        let h = Histogram::default();
        h.record(Duration::from_secs(10_000_000));
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.buckets.len(), 1);
        assert_eq!(snap.buckets[0].0, 1u64 << (HISTOGRAM_BUCKETS - 1));
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let m = Metrics::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        m.counter_add("hits", 1);
                        m.record_timing("wall", Duration::from_micros(5));
                    }
                });
            }
        });
        assert_eq!(m.counter("hits"), 8000);
        assert_eq!(m.timings()[0].1.count, 8000);
        assert_eq!(m.timing("wall").expect("recorded").count, 8000);
        assert_eq!(m.timing("never"), None);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::default();
        // 100 samples at 10 µs (bucket [8, 16)), 10 at 100 µs
        // (bucket [64, 128)), 1 at 1000 µs (bucket [512, 1024)).
        for _ in 0..100 {
            h.record(Duration::from_micros(10));
        }
        for _ in 0..10 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_micros(1000));
        let snap = h.snapshot();
        let p50 = snap.p50_us();
        assert!((8.0..16.0).contains(&p50), "p50 = {p50}");
        let p95 = snap.quantile_us(0.95);
        assert!((64.0..128.0).contains(&p95), "p95 = {p95}");
        // The top sample caps every estimate at the observed max.
        assert!(snap.quantile_us(1.0) <= 1000.0);
        assert_eq!(snap.quantile_us(1.0), snap.max_us as f64);
        // Quantile estimates are monotone in q.
        let mut last = 0.0;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = snap.quantile_us(q);
            assert!(v >= last, "quantile_us not monotone at q={q}");
            last = v;
        }
    }

    #[test]
    fn quantiles_handle_edge_shapes() {
        assert_eq!(HistogramSnapshot::default().p99_us(), 0.0);
        let h = Histogram::default();
        h.record(Duration::from_micros(0));
        let snap = h.snapshot();
        // Sub-microsecond bucket interpolates linearly in [0, 1).
        assert!(snap.p50_us() <= 1.0);
        let h = Histogram::default();
        h.record(Duration::from_micros(7));
        let snap = h.snapshot();
        // A single sample: every quantile collapses to its bucket,
        // clamped to the observed max.
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = snap.quantile_us(q);
            assert!((4.0..=7.0).contains(&v), "q={q} -> {v}");
        }
    }

    #[test]
    fn scoped_metrics_prefix_names() {
        let m = Metrics::new();
        let chip = m.scoped("chip.3");
        chip.counter_add("query.patterns", 64);
        chip.record_timing("query.latency", Duration::from_micros(12));
        assert_eq!(m.counter("chip.3.query.patterns"), 64);
        assert_eq!(chip.counter("query.patterns"), 64);
        assert_eq!(m.timing("chip.3.query.latency").expect("scoped").count, 1);
        assert_eq!(chip.timing("query.latency").expect("scoped").count, 1);
        assert_eq!(chip.timing("missing"), None);
    }

    #[test]
    fn snapshot_lookup_and_json() {
        let m = Metrics::new();
        m.counter_add("serve.queries", 3);
        m.record_timing("serve.query.latency", Duration::from_micros(5));
        let snap = m.snapshot();
        assert!(!snap.is_empty());
        assert_eq!(snap.counter("serve.queries"), 3);
        assert_eq!(snap.counter("absent"), 0);
        assert_eq!(
            snap.timing("serve.query.latency").expect("present").count,
            1
        );
        assert!(snap.timing("absent").is_none());
        let json = snap.to_json();
        assert_eq!(
            json,
            r#"{"counters":{"serve.queries":3},"timings":{"serve.query.latency":{"count":1,"sum_us":5,"max_us":5,"buckets":[[8,1]]}}}"#
        );
        assert_eq!(
            MetricsSnapshot::default().to_json(),
            r#"{"counters":{},"timings":{}}"#
        );
    }
}
