//! The runner: repeats passes for the time budget, then reduces them to
//! the end-to-end metrics (untraced passes) or the per-layer metrics
//! (traced passes), and renders the result record.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::{median, peak_rss_mb, rank_percentile, reset_peak_rss, sorted};
use crate::trace::{Tracer, ATTACKS, BENCH, CORE, FARM, SAT, SERVE};
use crate::{Bench, Inputs, PassOut, Workload};

/// A metric's name, unit and direction.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// The end-to-end metrics, printed on every workload with tracing off.
/// Each workload defines its blocking request and its patterns in
/// `BENCHMARK.json` and the README.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("patterns_per_s", "1/s", "higher"),
    ("req_p50_us", "us", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Layers the attribution splits the timed section into.
const LAYERS: [&str; 6] = [CORE, SAT, ATTACKS, SERVE, FARM, BENCH];

/// The per-layer metrics, printed on every workload with tracing on (0
/// where a workload does not cross the layer).
pub const PER_LAYER: &[MetricDef] = &[
    ("lock.s", "s", "lower"),
    ("morph.us", "us", "lower"),
    ("morph.count", "count", "lower"),
    ("morph.rekeys_seen", "count", "lower"),
    ("sat.solve_s", "s", "lower"),
    ("sat.conflicts", "count", "lower"),
    ("sat.propagations", "count", "lower"),
    ("sat.decisions", "count", "lower"),
    ("sat.learned", "count", "lower"),
    ("sat.deleted", "count", "lower"),
    ("sat.conflicts_per_s", "1/s", "higher"),
    ("sat.props_per_s", "1/s", "higher"),
    ("attack.dips", "count", "lower"),
    ("attack.solves", "count", "lower"),
    ("attack.other_s", "s", "lower"),
    ("verify.s", "s", "lower"),
    ("oracle.calls", "count", "lower"),
    ("oracle.lanes_per_call", "count", "higher"),
    ("oracle.busy_s", "s", "lower"),
    ("oracle.rtt_p50_us", "us", "lower"),
    ("oracle.rtt_p95_us", "us", "lower"),
    ("sim.eval_us", "us", "lower"),
    ("sim.ns_per_pattern", "ns", "lower"),
    ("codec.decode_us", "us", "lower"),
    ("codec.write_us", "us", "lower"),
    ("serve.wait_us", "us", "lower"),
    ("serve.batch_p50_us", "us", "lower"),
    ("serve.batch_p99_us", "us", "lower"),
    ("farm.cell_s", "s", "lower"),
    ("farm.overhead_ms_per_cell", "ms", "lower"),
    ("farm.leased", "count", "lower"),
    ("farm.completed", "count", "higher"),
    ("farm.expired", "count", "lower"),
    ("farm.duplicate", "count", "lower"),
    ("farm.failed", "count", "lower"),
    ("self_s.ril-core", "s", "lower"),
    ("self_s.ril-sat", "s", "lower"),
    ("self_s.ril-attacks", "s", "lower"),
    ("self_s.ril-serve", "s", "lower"),
    ("self_s.ril-bench", "s", "lower"),
    ("self_s.perfbench", "s", "lower"),
    ("attrib.layer_sum_s", "s", "lower"),
    ("attrib.capacity_s", "s", "lower"),
    ("attrib.unattributed_s", "s", "lower"),
    ("attrib.unattributed_pct", "%", "lower"),
    ("req.p90_us", "us", "lower"),
    ("req.p99_us", "us", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
];

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// Where its inputs come from.
    pub inputs: Inputs,
    /// The time budget, seconds.
    pub seconds: u64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
}

/// Passes a run makes at least: set-up is measured several times, and a
/// traced run needs two traced and two untraced passes.
const MIN_PASSES: usize = 3;
const MIN_PASSES_TRACED: usize = 4;

/// No pass starts after this much time, whatever the minimum, so that a
/// build slow enough to hit the attack budgets still ends its run.
const HARD_STOP_S: f64 = 90.0;

/// One finished pass.
pub struct PassRec {
    /// Whether spans were recorded.
    pub traced: bool,
    /// What it measured.
    pub out: PassOut,
    /// Its spans, when traced.
    pub tracer: Option<Tracer>,
    /// The process's resident-memory high-water mark during the pass, MiB.
    pub peak_rss_mb: f64,
}

/// Runs passes of `bench` until the budget is spent: a new pass starts
/// only if the previous one would still fit, so a run ends close to its
/// budget. With `trace`, every second pass records spans. The memory
/// high-water mark is reset before each pass, so each pass has its own.
pub fn run(settings: &Settings, bench: &mut dyn Bench) -> Vec<PassRec> {
    let min = if settings.trace {
        MIN_PASSES_TRACED
    } else {
        MIN_PASSES
    };
    let started = Instant::now();
    let mut passes = Vec::new();
    loop {
        let traced = settings.trace && passes.len() % 2 == 1;
        let tracer = traced.then(Tracer::new);
        reset_peak_rss();
        let t = Instant::now();
        let out = bench.pass(tracer.as_ref());
        let took = t.elapsed().as_secs_f64();
        passes.push(PassRec {
            traced,
            out,
            tracer,
            peak_rss_mb: peak_rss_mb().unwrap_or(0.0),
        });
        let elapsed = started.elapsed().as_secs_f64();
        if passes.len() >= min && elapsed + took > settings.seconds as f64 || elapsed > HARD_STOP_S
        {
            return passes;
        }
    }
}

/// A run reduced to its result.
pub struct Outcome {
    /// The settings it ran under.
    pub settings: Settings,
    /// Passes made (traced and untraced).
    pub passes: usize,
    /// Operations attempted across all passes.
    pub attempted: u64,
    /// Failed operations and checks across all passes.
    pub failed: u64,
    /// Failure messages across all passes.
    pub failures: Vec<String>,
    /// Metric values by name, in the order of the metric list.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Timed wall of every untraced pass, seconds.
    pub walls: Vec<f64>,
}

impl Outcome {
    /// Every output was correct.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Failed operations over attempted ones.
    #[must_use]
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn median_of(passes: &[&PassRec], f: impl Fn(&PassRec) -> f64) -> f64 {
    median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Reduces the passes of a run to its metrics.
#[must_use]
pub fn reduce(settings: Settings, passes: &[PassRec]) -> Outcome {
    let attempted = passes.iter().map(|p| p.out.attempted).sum();
    let failed = passes.iter().map(|p| p.out.failed).sum();
    let failures = passes.iter().flat_map(|p| p.out.failures.clone()).collect();
    let plain: Vec<&PassRec> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&PassRec> = passes.iter().filter(|p| p.traced).collect();
    let untraced_wall = median_of(&plain, |p| p.out.wall.as_secs_f64());
    let metrics = if settings.trace {
        let traced_wall = median_of(&traced, |p| p.out.wall.as_secs_f64());
        let mut extra: Vec<BTreeMap<&str, f64>> = traced.iter().map(|p| attribution(p)).collect();
        for m in &mut extra {
            m.insert("trace.traced_wall_s", traced_wall);
            m.insert("trace.untraced_wall_s", untraced_wall);
            m.insert(
                "trace.overhead_pct",
                (traced_wall / untraced_wall - 1.0) * 100.0,
            );
        }
        PER_LAYER
            .iter()
            .map(|&def| {
                let values: Vec<f64> = traced
                    .iter()
                    .zip(&extra)
                    .map(|(p, x)| {
                        p.out
                            .layer
                            .get(def.0)
                            .or_else(|| x.get(def.0))
                            .copied()
                            .unwrap_or(0.0)
                    })
                    .collect();
                (def, median(&values).unwrap_or(0.0))
            })
            .collect()
    } else {
        let latencies: Vec<f64> = sorted(
            &plain
                .iter()
                .flat_map(|p| p.out.latencies_us.iter().copied())
                .collect::<Vec<_>>(),
        );
        END_TO_END
            .iter()
            .map(|&def| {
                let v = match def.0 {
                    "setup_s" => median_of(&plain, |p| p.out.setup.as_secs_f64()),
                    "wall_s" => untraced_wall,
                    "patterns_per_s" => median_of(&plain, |p| {
                        p.out.patterns as f64 / p.out.wall.as_secs_f64().max(1e-9)
                    }),
                    "req_p50_us" => rank_percentile(&latencies, 0.50).unwrap_or(0.0),
                    "peak_rss_mb" => median_of(&plain, |p| p.peak_rss_mb),
                    other => unreachable!("no reduction for {other}"),
                };
                (def, v)
            })
            .collect()
    };
    Outcome {
        settings,
        passes: passes.len(),
        attempted,
        failed,
        failures,
        metrics,
        walls: plain.iter().map(|p| p.out.wall.as_secs_f64()).collect(),
    }
}

/// A traced pass's layer attribution — each layer's self time in the
/// timed section, their sum, and what is left of `paths × wall` — and
/// its blocking requests' tail latency.
fn attribution(p: &PassRec) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let Some(tracer) = &p.tracer else { return m };
    let self_times = tracer.self_times();
    let mut layer_sum = 0.0;
    for layer in LAYERS {
        let v = self_times.get(layer).copied().unwrap_or(0.0);
        let name = PER_LAYER
            .iter()
            .find(|d| d.0.strip_prefix("self_s.") == Some(layer))
            .map(|d| d.0)
            .expect("every layer has a self-time metric");
        m.insert(name, v);
        if layer != BENCH {
            layer_sum += v;
        }
    }
    let capacity = p.out.paths.max(1) as f64 * p.out.wall.as_secs_f64();
    m.insert("attrib.layer_sum_s", layer_sum);
    m.insert("attrib.capacity_s", capacity);
    m.insert("attrib.unattributed_s", capacity - layer_sum);
    m.insert(
        "attrib.unattributed_pct",
        (capacity - layer_sum) / capacity.max(1e-12) * 100.0,
    );
    let latencies = sorted(&p.out.latencies_us);
    for (name, q) in [("req.p90_us", 0.90), ("req.p99_us", 0.99)] {
        if let Some(v) = rank_percentile(&latencies, q) {
            m.insert(name, v);
        }
    }
    m
}

/// The commit the benchmark was built from: what git reports for the
/// working directory, else `unknown`.
#[must_use]
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The build profile this binary was compiled with.
#[must_use]
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Cores available to the run.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// JSON string escaping for failure messages.
fn escape(s: &str) -> String {
    ril_attacks::json::escape(s)
}

fn metrics_json(metrics: &[(MetricDef, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|((name, unit, _), v)| {
            // A metric with nothing to measure (an empty traced set)
            // reads 0 rather than a non-number.
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(r#""{name}":{{"value":{v},"unit":"{unit}"}}"#)
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The one-line result the command prints last.
#[must_use]
pub fn result_line(o: &Outcome) -> String {
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{}}}"#,
        o.correct(),
        o.attempted.max(1),
        o.failed,
        metrics_json(&o.metrics)
    )
}

/// The full record of a run: the result plus everything needed to decide
/// whether two results may be compared.
#[must_use]
pub fn record_json(o: &Outcome) -> String {
    let s = &o.settings;
    let failures: Vec<String> = o
        .failures
        .iter()
        .map(|f| format!("\"{}\"", escape(f)))
        .collect();
    let walls: Vec<String> = o.walls.iter().map(f64::to_string).collect();
    let mut out = String::new();
    let _ = write!(
        out,
        r#"{{"workload":"{}","seed":{},"lock_seed":{},"seconds":{},"trace":{},"nproc":{},"commit":"{}","profile":"{}","passes":{},"attempted":{},"failed":{},"fail_ratio":{},"correct":{},"pass_walls_s":[{}],"metrics":{},"failures":[{}]}}"#,
        s.workload.name(),
        s.inputs.seed,
        s.inputs.lock_seed,
        s.seconds,
        u8::from(s.trace),
        nproc(),
        escape(&commit()),
        profile(),
        o.passes,
        o.attempted,
        o.failed,
        o.fail_ratio(),
        o.correct(),
        walls.join(","),
        metrics_json(&o.metrics),
        failures.join(",")
    );
    out
}

/// Every traced pass's spans as JSON lines.
#[must_use]
pub fn spans_jsonl(passes: &[PassRec]) -> String {
    passes
        .iter()
        .enumerate()
        .filter_map(|(i, p)| p.tracer.as_ref().map(|t| t.to_jsonl(i)))
        .collect()
}
