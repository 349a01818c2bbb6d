//! The experiment framework: one trait, one registry, one driver.
//!
//! Every table and figure of the paper is an [`Experiment`]: a named unit
//! with a one-line description and a `run` that takes the validated
//! [`RunConfig`] plus a [`RunContext`] (span log, cell cache, cell
//! accounting). The [`registry`] enumerates all of them; the `ril-bench`
//! binary is nothing but argument parsing over this module.
//!
//! Failure isolation: [`run_experiments`] wraps each experiment in
//! `catch_unwind`, so one failing (or even panicking) experiment is
//! recorded in its manifest and the remaining experiments still run —
//! `ril-bench run --all` never dies on the first bad cell.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ril_attacks::AttackReport;
use ril_trace::json::{escape, JsonValue};
use ril_trace::{NoteKind, Phase, SpanId, Tracer};

use crate::cache::{CellCache, Manifest};
use crate::cell::CellSpec;
use crate::config::{ConfigError, LogLevel, RunConfig};
use crate::CellOutcome;

/// What an experiment hands back on success.
#[derive(Debug, Clone, Default)]
pub struct ExperimentOutput {
    /// One-line human summary (shown in the run footer).
    pub summary: String,
    /// Files the experiment wrote (tables, JSON, CSV).
    pub files: Vec<PathBuf>,
}

impl ExperimentOutput {
    /// An output with a summary and no files.
    pub fn summary(text: impl Into<String>) -> ExperimentOutput {
        ExperimentOutput {
            summary: text.into(),
            files: Vec::new(),
        }
    }
}

/// A recoverable experiment failure. One failing experiment must not
/// abort `ril-bench run --all`, so everything that used to `unwrap()` in
/// the bench binaries now funnels into this type.
#[derive(Debug)]
pub enum ExperimentError {
    /// Rejected environment / configuration.
    Config(ConfigError),
    /// Netlist construction or simulation failure.
    Netlist(ril_netlist::NetlistError),
    /// Obfuscation failure (host too small, spec unsatisfiable, …).
    Obfuscate(ril_core::ObfuscateError),
    /// Filesystem failure.
    Io(std::io::Error),
    /// Anything else, with context.
    Other(String),
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Config(e) => write!(f, "config: {e}"),
            ExperimentError::Netlist(e) => write!(f, "netlist: {e}"),
            ExperimentError::Obfuscate(e) => write!(f, "obfuscate: {e}"),
            ExperimentError::Io(e) => write!(f, "io: {e}"),
            ExperimentError::Other(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<ConfigError> for ExperimentError {
    fn from(e: ConfigError) -> ExperimentError {
        ExperimentError::Config(e)
    }
}

impl From<ril_netlist::NetlistError> for ExperimentError {
    fn from(e: ril_netlist::NetlistError) -> ExperimentError {
        ExperimentError::Netlist(e)
    }
}

impl From<ril_core::ObfuscateError> for ExperimentError {
    fn from(e: ril_core::ObfuscateError) -> ExperimentError {
        ExperimentError::Obfuscate(e)
    }
}

impl From<std::io::Error> for ExperimentError {
    fn from(e: std::io::Error) -> ExperimentError {
        ExperimentError::Io(e)
    }
}

impl From<String> for ExperimentError {
    fn from(msg: String) -> ExperimentError {
        ExperimentError::Other(msg)
    }
}

impl From<&str> for ExperimentError {
    fn from(msg: &str) -> ExperimentError {
        ExperimentError::Other(msg.to_string())
    }
}

/// One table or figure of the paper, as a runnable unit.
pub trait Experiment: Sync {
    /// The CLI name (`table1`, `fig6`, …).
    fn name(&self) -> &'static str;
    /// One-line description for `ril-bench list`.
    fn describe(&self) -> &'static str;
    /// Runs the experiment.
    ///
    /// # Errors
    ///
    /// Recoverable failures; the driver records them and moves on.
    fn run(&self, cfg: &RunConfig, ctx: &RunContext) -> Result<ExperimentOutput, ExperimentError>;

    /// The experiment's cached cells under `cfg`, in the order `run`
    /// reads their outcomes ([`RunContext::outcomes`]). This is the one
    /// cell plan: a farm phase computes exactly these cells. The
    /// default — no cells — is for experiments that cache nothing.
    fn cells(&self, _cfg: &RunConfig) -> Vec<CellSpec> {
        Vec::new()
    }
}

/// Shared run services handed to each experiment: the run's
/// [`Tracer`] (whose span log also records the run's notes and errors),
/// the content-addressed cell cache, and cell accounting. All methods
/// take `&self` (interior mutability) so sweep cells can use the context
/// from parallel worker threads.
pub struct RunContext {
    experiment: String,
    log_level: LogLevel,
    cache: CellCache,
    out_dir: PathBuf,
    trace: Tracer,
    root_span: SpanId,
    cached: AtomicUsize,
    computed: AtomicUsize,
    failed: AtomicUsize,
}

impl RunContext {
    /// A context for `experiment` rooted at `cfg.out_dir`, with an
    /// enabled tracer and an open `experiment` root span.
    /// [`run_experiments_with`] closes it and writes
    /// `SPANS_<experiment>.jsonl` when the experiment finishes.
    pub fn new(experiment: &str, cfg: &RunConfig) -> RunContext {
        let trace = Tracer::new();
        let root_span = trace.open_root("experiment", Phase::Experiment);
        RunContext {
            experiment: experiment.to_string(),
            log_level: cfg.log_level,
            cache: CellCache::new(&cfg.out_dir, cfg.use_cache),
            out_dir: cfg.out_dir.clone(),
            trace,
            root_span,
            cached: AtomicUsize::new(0),
            computed: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
        }
    }

    /// A silent, untraced context over a throwaway cache — for unit tests.
    pub fn null(experiment: &str) -> RunContext {
        let dir = std::env::temp_dir().join(format!("ril_null_ctx_{}", std::process::id()));
        RunContext {
            experiment: experiment.to_string(),
            log_level: LogLevel::Off,
            cache: CellCache::new(&dir, false),
            out_dir: dir,
            trace: Tracer::disabled(),
            root_span: SpanId::NONE,
            cached: AtomicUsize::new(0),
            computed: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
        }
    }

    /// The run's tracer.
    pub fn trace(&self) -> &Tracer {
        &self.trace
    }

    /// The experiment's root span, parent for sweep-worker spans.
    pub fn root_span(&self) -> SpanId {
        self.root_span
    }

    /// Runs `job` over `items` on `workers` threads with this run's trace
    /// context installed on every worker, so cell/attack/solve spans
    /// opened inside the job attach under the experiment root span.
    pub fn sweep<T, R, F>(&self, workers: usize, items: &[T], job: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        crate::sweep::parallel_sweep_traced(workers, &self.trace, self.root_span, items, job)
    }

    /// Closes the experiment root span and writes the span log
    /// `SPANS_<experiment>.jsonl` into the output directory. Called once
    /// by [`run_experiments_with`], after the experiment finishes (or
    /// panics).
    fn finish_trace(&self) {
        self.trace.close_with(
            self.root_span,
            vec![(
                "experiment",
                ril_trace::FieldValue::Str(self.experiment.clone()),
            )],
        );
        let spans = self
            .out_dir
            .join(format!("SPANS_{}.jsonl", self.experiment));
        if let Err(e) = self.trace.write_spans_jsonl(&spans) {
            self.record(NoteKind::Error, &format!("span log write failed: {e}"));
        }
    }

    /// Records a note or error under the root span and mirrors it to
    /// stderr when `RIL_LOG` shows its kind.
    fn record(&self, kind: NoteKind, message: &str) {
        self.trace.note(self.root_span, kind, message);
        let shown_from = match kind {
            NoteKind::Error => LogLevel::Error,
            NoteKind::Note => LogLevel::Note,
        };
        if self.log_level >= shown_from {
            eprintln!("[{}] {} {message}", self.experiment, kind.as_str());
        }
    }

    /// Records a note.
    pub fn note(&self, message: &str) {
        self.record(NoteKind::Note, message);
    }

    /// Records an error and bumps the failed-cell count.
    pub fn cell_failed(&self, message: &str) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        self.record(NoteKind::Error, message);
    }

    /// The outcomes of `cells`, in plan order, swept on `workers`
    /// threads. Each cell is served from the cache when its key is on
    /// disk; otherwise it runs and is persisted atomically before the
    /// sweep moves on, which is what makes interrupted sweeps resumable.
    /// A cell that fails is recorded and rendered as an `err:…` cell, so
    /// one bad cell never aborts a table.
    pub fn outcomes(&self, cells: &[CellSpec], workers: usize) -> Vec<CellOutcome> {
        self.sweep(workers, cells, |_, spec| {
            let label = spec.label();
            self.cached_payload(spec, &label)
                .and_then(|payload| parse_cell_payload(&payload))
                .unwrap_or_else(|e| {
                    self.cell_failed(&format!("{label}: {e}"));
                    CellOutcome::bare(format!("err:{e}"))
                })
        })
    }

    /// One cell's payload: from the cache, or computed and stored.
    fn cached_payload(&self, spec: &CellSpec, label: &str) -> Result<String, String> {
        let key = spec.key();
        let mut span = ril_trace::span("cell", Phase::Cell);
        span.record_str("label", label);
        if let Some(payload) = self.cache.get(&key) {
            self.cached.fetch_add(1, Ordering::Relaxed);
            span.record_bool("cached", true);
            return Ok(payload);
        }
        span.record_bool("cached", false);
        let payload = cell_payload(&spec.run().map_err(|e| e.to_string())?);
        if let Err(e) = self.cache.put(&key, &payload) {
            self.record(
                NoteKind::Error,
                &format!("cache store failed for {label}: {e}"),
            );
        }
        self.computed.fetch_add(1, Ordering::Relaxed);
        Ok(payload)
    }

    /// Writes a machine-readable output file into the run's output
    /// directory and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_output(&self, name: &str, content: &str) -> Result<PathBuf, ExperimentError> {
        std::fs::create_dir_all(&self.out_dir)?;
        let path = self.out_dir.join(name);
        std::fs::write(&path, content)?;
        Ok(path)
    }

    /// Cells served from cache so far.
    pub fn cached_cells(&self) -> usize {
        self.cached.load(Ordering::Relaxed)
    }

    /// Cells computed so far.
    pub fn computed_cells(&self) -> usize {
        self.computed.load(Ordering::Relaxed)
    }

    /// Cells failed so far.
    pub fn failed_cells(&self) -> usize {
        self.failed.load(Ordering::Relaxed)
    }

    /// The experiment this context belongs to.
    pub fn experiment(&self) -> &str {
        &self.experiment
    }
}

/// Encodes a [`CellOutcome`] as a cache payload.
pub fn cell_payload(outcome: &CellOutcome) -> String {
    format!(
        r#"{{"cell":"{}","report":{}}}"#,
        escape(&outcome.cell),
        outcome.report_json()
    )
}

/// Decodes a cache payload back into a [`CellOutcome`].
///
/// # Errors
///
/// Returns a message when the payload is not a valid cell object (e.g. a
/// cache file from a different payload kind).
pub fn parse_cell_payload(payload: &str) -> Result<CellOutcome, String> {
    let v = JsonValue::parse(payload).map_err(|e| e.to_string())?;
    let cell = v
        .get("cell")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "cell payload missing \"cell\"".to_string())?
        .to_string();
    let report = match v.get("report") {
        None | Some(JsonValue::Null) => None,
        Some(r) => Some(AttackReport::from_json_value(r).map_err(|e| e.to_string())?),
    };
    Ok(CellOutcome { cell, report })
}

/// All experiments, in the order `run --all` executes them. Fast,
/// solver-free experiments first so a broken build fails early and
/// cheaply.
pub fn registry() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(crate::experiments::overhead::Overhead),
        Box::new(crate::experiments::table4::Table4),
        Box::new(crate::experiments::fig5::Fig5),
        Box::new(crate::experiments::fig6::Fig6),
        Box::new(crate::experiments::corruptibility::Corruptibility),
        Box::new(crate::experiments::key_redundancy::KeyRedundancy),
        Box::new(crate::experiments::fig1::Fig1),
        Box::new(crate::experiments::lut_scaling::LutScaling),
        Box::new(crate::experiments::scan_defense::ScanDefense),
        Box::new(crate::experiments::incremental_verify::IncrementalVerify),
        Box::new(crate::experiments::oracle_throughput::OracleThroughput),
        Box::new(crate::experiments::solver_ablation::SolverAblation),
        Box::new(crate::experiments::serve_load::ServeLoad),
        Box::new(crate::experiments::dynamic_defense::DynamicDefense),
        Box::new(crate::experiments::table1::Table1),
        Box::new(crate::experiments::table3::Table3),
        Box::new(crate::experiments::table5::Table5),
    ]
}

/// Looks an experiment up by CLI name.
pub fn find(name: &str) -> Option<Box<dyn Experiment>> {
    registry().into_iter().find(|e| e.name() == name)
}

/// The outcome of one experiment under [`run_experiments`].
#[derive(Debug)]
pub struct RunRecord {
    /// Experiment name.
    pub name: &'static str,
    /// `Ok(summary)` or `Err(rendered error)`.
    pub outcome: Result<String, String>,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Cells served from cache.
    pub cached_cells: usize,
    /// Cells computed.
    pub computed_cells: usize,
}

/// Runs `experiments` in order, isolating failures: an `Err` — or even a
/// panic — in one experiment is recorded and the next still runs. Each
/// experiment gets a manifest at `MANIFEST_<name>.json` recording its
/// config, cache accounting, and wall time.
pub fn run_experiments(experiments: &[Box<dyn Experiment>], cfg: &RunConfig) -> Vec<RunRecord> {
    run_experiments_with(experiments, cfg, None)
}

/// [`run_experiments`] with an optional distributed farm phase: when
/// `farm` is set, each experiment's cells are computed by
/// worker processes into the shared cell cache *before* `run` executes,
/// so the in-process run assembles its tables from cache hits. The farm
/// telemetry snapshot lands in the manifest's `farm` field.
pub fn run_experiments_with(
    experiments: &[Box<dyn Experiment>],
    cfg: &RunConfig,
    farm: Option<&crate::farm::FarmSpec>,
) -> Vec<RunRecord> {
    let mut records = Vec::new();
    for exp in experiments {
        let name = exp.name();
        let ctx = RunContext::new(name, cfg);
        ctx.note(&format!("start: {}", exp.describe()));
        let started = Instant::now();
        let farm_phase =
            farm.and_then(|spec| crate::farm::run_farm_phase(exp.as_ref(), cfg, &ctx, spec));
        let outcome = match catch_unwind(AssertUnwindSafe(|| {
            // Spans opened by the experiment (and by the solver/attack
            // layers underneath it) attach to this run's root span. The
            // guard drops on unwind, so a panicking experiment still
            // leaves a balanced trace.
            let _trace_ctx = ctx.trace().install(ctx.root_span());
            exp.run(cfg, &ctx)
        })) {
            Ok(Ok(output)) => Ok(output.summary),
            Ok(Err(e)) => Err(e.to_string()),
            Err(panic) => Err(format!("panicked: {}", panic_message(&panic))),
        };
        let wall_s = started.elapsed().as_secs_f64();
        let manifest = Manifest {
            experiment: name.to_string(),
            config_json: cfg.to_json(),
            cached_cells: ctx.cached_cells(),
            computed_cells: ctx.computed_cells(),
            failed_cells: ctx.failed_cells(),
            wall_s,
            completed: outcome.is_ok(),
            farm: farm_phase.as_ref().map(|p| p.snapshot.to_json()),
        };
        match &outcome {
            Ok(summary) => ctx.note(&format!("done in {wall_s:.1}s: {summary}")),
            Err(e) => ctx.cell_failed(&format!("experiment failed after {wall_s:.1}s: {e}")),
        }
        if let Err(e) = std::fs::create_dir_all(&cfg.out_dir).and_then(|()| {
            std::fs::write(Manifest::path_for(&cfg.out_dir, name), manifest.to_json())
        }) {
            ctx.note(&format!("manifest write failed: {e}"));
        }
        ctx.finish_trace();
        records.push(RunRecord {
            name,
            outcome,
            wall_s,
            cached_cells: manifest.cached_cells,
            computed_cells: manifest.computed_cells,
        });
    }
    records
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_complete() {
        let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate experiment names");
        assert_eq!(names.len(), 17);
        for required in [
            "table1",
            "table3",
            "table4",
            "table5",
            "fig1",
            "fig5",
            "fig6",
            "overhead",
            "scan_defense",
            "incremental_verify",
            "oracle_throughput",
            "solver_ablation",
            "serve_load",
            "dynamic_defense",
            "corruptibility",
            "key_redundancy",
            "lut_scaling",
        ] {
            assert!(names.contains(&required), "missing {required}");
        }
    }

    #[test]
    fn cell_payload_round_trips_bare() {
        let outcome = CellOutcome::bare("n/a");
        let parsed = parse_cell_payload(&cell_payload(&outcome)).unwrap();
        assert_eq!(parsed.cell, "n/a");
        assert!(parsed.report.is_none());
    }

    #[test]
    fn failing_experiment_does_not_stop_the_run() {
        struct Boom;
        impl Experiment for Boom {
            fn name(&self) -> &'static str {
                "boom"
            }
            fn describe(&self) -> &'static str {
                "always fails"
            }
            fn run(
                &self,
                _cfg: &RunConfig,
                _ctx: &RunContext,
            ) -> Result<ExperimentOutput, ExperimentError> {
                Err("intentional".into())
            }
        }
        struct Panics;
        impl Experiment for Panics {
            fn name(&self) -> &'static str {
                "panics"
            }
            fn describe(&self) -> &'static str {
                "always panics"
            }
            fn run(
                &self,
                _cfg: &RunConfig,
                _ctx: &RunContext,
            ) -> Result<ExperimentOutput, ExperimentError> {
                panic!("kaboom")
            }
        }
        struct Fine;
        impl Experiment for Fine {
            fn name(&self) -> &'static str {
                "fine"
            }
            fn describe(&self) -> &'static str {
                "succeeds"
            }
            fn run(
                &self,
                _cfg: &RunConfig,
                _ctx: &RunContext,
            ) -> Result<ExperimentOutput, ExperimentError> {
                Ok(ExperimentOutput::summary("ok"))
            }
        }
        let dir = std::env::temp_dir().join(format!("ril_run_isolation_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = RunConfig {
            out_dir: dir.clone(),
            ..RunConfig::default()
        };
        let exps: Vec<Box<dyn Experiment>> = vec![Box::new(Boom), Box::new(Panics), Box::new(Fine)];
        let records = run_experiments(&exps, &cfg);
        assert_eq!(records.len(), 3);
        assert!(records[0].outcome.is_err());
        assert!(records[1].outcome.as_ref().unwrap_err().contains("kaboom"));
        assert_eq!(records[2].outcome.as_deref(), Ok("ok"));
        // Every experiment — failed or not — left a manifest.
        for name in ["boom", "panics", "fine"] {
            let text = std::fs::read_to_string(Manifest::path_for(&dir, name)).unwrap();
            let m = Manifest::from_json(&text).unwrap();
            assert_eq!(m.completed, name == "fine");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
