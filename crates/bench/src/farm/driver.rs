//! The farm driver: the piece `ril-bench run --workers N` calls between
//! "experiment selected" and "experiment runs".
//!
//! [`run_farm_phase`] enumerates the experiment's farmable cells,
//! starts a loopback coordinator over the ones not already cached,
//! spawns N worker *processes* (real OS processes — so the crash-recovery
//! path exercised in CI is the same one a remote worker would take), and
//! polls with a live status line until every cell settles or every
//! worker is gone. The experiment then runs exactly as before; farmed
//! cells are cache hits, anything the farm missed is computed locally.

use std::io::IsTerminal;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ril_trace::MetricsSnapshot;

use crate::cache::CellCache;
use crate::config::RunConfig;
use crate::experiment::{Experiment, RunContext};
use crate::farm::coordinator::{Coordinator, FarmConfig};

/// How a farm phase is provisioned.
#[derive(Debug, Clone, Default)]
pub struct FarmSpec {
    /// Number of local worker processes to spawn.
    pub workers: usize,
    /// Worker executable; defaults to the current binary (re-invoked as
    /// `<exe> worker --connect <addr>`).
    pub worker_cmd: Option<PathBuf>,
    /// Lease duration override; defaults to twice the stretched attack
    /// timeout plus slack, so a lease outlives any single honest cell.
    pub lease: Option<Duration>,
}

/// What the farm phase accomplished, attached to the run manifest.
#[derive(Debug, Clone)]
pub struct FarmPhase {
    /// Farm counters and latency histograms (`farm.cells.*`,
    /// `farm.cell.wall`, per-worker timings).
    pub snapshot: MetricsSnapshot,
    /// Cells the farm was asked to compute (cache misses at start).
    pub farmed: usize,
    /// Cells already cached when the phase started.
    pub already_cached: usize,
    /// Distinct workers that joined.
    pub workers: usize,
    /// Farm wall time.
    pub wall: Duration,
}

/// Runs the distributed phase for one experiment, if it has farmable
/// cells. Returns `None` when there is nothing to farm (no farmable
/// cells, cache disabled, or everything already cached) — the caller
/// just proceeds with the normal in-process run.
pub fn run_farm_phase(
    exp: &dyn Experiment,
    cfg: &RunConfig,
    ctx: &RunContext,
    spec: &FarmSpec,
) -> Option<FarmPhase> {
    if spec.workers == 0 {
        return None;
    }
    let cells = exp.farm_cells(cfg);
    if cells.is_empty() {
        ctx.note("farm: experiment has no farmable cells; running in-process");
        return None;
    }
    if !cfg.use_cache {
        ctx.note("farm: --no-cache disables the shared artifact store; running in-process");
        return None;
    }
    let cache = CellCache::new(&cfg.out_dir, cfg.use_cache);
    let total = cells.len();
    let missing: Vec<_> = cells
        .into_iter()
        .filter(|k| cache.get(k).is_none())
        .collect();
    let already_cached = total - missing.len();
    if missing.is_empty() {
        ctx.note(&format!("farm: all {total} cells already cached"));
        return None;
    }

    let lease = spec
        .lease
        .unwrap_or_else(|| cfg.timeout * 2 + Duration::from_secs(15));
    let farm_cfg = FarmConfig {
        bind: "127.0.0.1:0".to_string(),
        lease,
        trace: Some(ctx.trace().clone()),
    };
    let mut handle = match Coordinator::start(missing.clone(), cache, farm_cfg) {
        Ok(h) => h,
        Err(e) => {
            ctx.note(&format!(
                "farm: coordinator failed to start ({e}); running in-process"
            ));
            return None;
        }
    };
    ctx.note(&format!(
        "farm: {} cell(s) over {} worker(s) at {} ({} already cached)",
        missing.len(),
        spec.workers,
        handle.addr(),
        already_cached
    ));

    let mut children = spawn_workers(spec, &handle.addr().to_string(), ctx);
    if children.is_empty() {
        ctx.note("farm: no workers could be spawned; running in-process");
        handle.shutdown();
        return None;
    }

    let status = StatusLine::new();
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let counts = handle.counts();
        if counts.settled() {
            break;
        }
        children.retain_mut(|c| c.try_wait().map(|s| s.is_none()).unwrap_or(false));
        if children.is_empty() {
            ctx.note(&format!(
                "farm: all workers exited with {} cell(s) unsettled; falling back to local compute",
                counts.pending + counts.leased
            ));
            break;
        }
        status.tick(&counts, handle.elapsed(), &handle.snapshot());
    }
    status.clear();
    handle.shutdown();
    reap(children);

    let counts = handle.counts();
    let snapshot = handle.snapshot();
    let phase = FarmPhase {
        snapshot,
        farmed: missing.len(),
        already_cached,
        workers: handle.workers_seen(),
        wall: handle.elapsed(),
    };
    ctx.note(&format!(
        "farm: done in {:.1}s — {} done, {} failed ({} worker(s) seen); unfinished cells compute locally",
        phase.wall.as_secs_f64(),
        counts.done,
        counts.failed,
        phase.workers,
    ));
    Some(phase)
}

fn spawn_workers(spec: &FarmSpec, addr: &str, ctx: &RunContext) -> Vec<Child> {
    let exe = match &spec.worker_cmd {
        Some(p) => p.clone(),
        None => match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => {
                ctx.note(&format!("farm: cannot locate worker executable: {e}"));
                return Vec::new();
            }
        },
    };
    let mut children = Vec::new();
    for i in 0..spec.workers {
        let spawned = Command::new(&exe)
            .arg("worker")
            .arg("--connect")
            .arg(addr)
            .arg("--name")
            .arg(format!("w{i}"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn();
        match spawned {
            Ok(c) => children.push(c),
            Err(e) => ctx.note(&format!("farm: worker w{i} failed to spawn: {e}")),
        }
    }
    children
}

fn reap(children: Vec<Child>) {
    for mut c in children {
        // Workers poll the coordinator and see `done` within a lease
        // poll; give them a moment, then insist.
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            match c.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                _ => {
                    let _ = c.kill();
                    let _ = c.wait();
                    break;
                }
            }
        }
    }
}

/// The `--workers` live status line: overwrites itself on a TTY, stays
/// silent otherwise (the JSONL event log and final note carry the same
/// numbers for non-interactive runs).
struct StatusLine {
    tty: bool,
    last: std::cell::Cell<Option<Instant>>,
    drawn: std::cell::Cell<bool>,
}

impl StatusLine {
    fn new() -> StatusLine {
        StatusLine {
            tty: std::io::stderr().is_terminal(),
            last: std::cell::Cell::new(None),
            drawn: std::cell::Cell::new(false),
        }
    }

    fn tick(&self, counts: &crate::farm::FarmCounts, elapsed: Duration, snap: &MetricsSnapshot) {
        if !self.tty {
            return;
        }
        if let Some(last) = self.last.get() {
            if last.elapsed() < Duration::from_millis(250) {
                return;
            }
        }
        self.last.set(Some(Instant::now()));
        let completed = snap
            .counters
            .iter()
            .find(|(k, _)| k == "farm.cells.completed")
            .map_or(0, |(_, v)| *v);
        let secs = elapsed.as_secs_f64().max(0.001);
        eprint!(
            "\r\x1b[2Kfarm: {} done / {} leased / {} pending  {:.2} cells/s  {:.0}s",
            counts.done + counts.failed,
            counts.leased,
            counts.pending,
            completed as f64 / secs,
            secs,
        );
        let _ = std::io::Write::flush(&mut std::io::stderr());
        self.drawn.set(true);
    }

    fn clear(&self) {
        if self.tty && self.drawn.get() {
            eprint!("\r\x1b[2K");
            let _ = std::io::Write::flush(&mut std::io::stderr());
        }
    }
}
