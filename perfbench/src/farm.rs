//! `sweep_farm`: a farmed sweep of small SAT cells — an in-process
//! coordinator over a fresh cell cache, and a worker leasing cells over
//! loopback. The only workload where lease round trips, settling and
//! cache writes are a visible share of the time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ril_bench::experiment::parse_cell_payload;
use ril_bench::farm::{Coordinator, FarmConfig};
use ril_bench::{run_worker, CacheKey, CellCache, SatCellSpec, WorkerConfig};
use ril_core::RilBlockSpec;
use ril_serve::WireCodec;

use crate::attack::{finish_sat_rates, permutation, record_report};
use crate::trace::{derived, span, untimed_span, Tracer, ATTACKS, BENCH, FARM};
use crate::{out_dir, Bench, Inputs, PassOut, Size};

/// Workers leasing cells. One, so that the coordinator's reactor and the
/// heartbeat thread have the second core of a 2-core machine to
/// themselves: with two workers, each pass's speed followed whatever
/// else ran on the host.
const WORKERS: usize = 1;

/// How long an idle worker waits before asking for work again. The
/// library default (200 ms) would make the last cell's straggler wait
/// dominate a sub-second sweep.
const POLL: Duration = Duration::from_millis(2);

/// Distinguishes the cache directories of concurrent passes.
static PASS_DIRS: AtomicUsize = AtomicUsize::new(0);

/// The `sweep_farm` workload.
pub struct SweepFarm {
    cells: Vec<CacheKey>,
}

impl SweepFarm {
    /// 200 cells on a 16-bit adder with one to three 2x2 blocks, leased
    /// in an order drawn from the seed. Their obfuscator seeds come from
    /// the lock seed, as `attack_local`'s do: the cost of a cell swings
    /// several-fold between lock seeds, so a cell set drawn from the
    /// workload seed made the spread across seeds that of the inputs.
    #[must_use]
    pub fn new(inputs: Inputs) -> SweepFarm {
        let (bench, count) = match inputs.size {
            Size::Full => ("adder:16", 200),
            Size::Tiny => ("adder:8", 6),
        };
        let cells = permutation(inputs.seed, count)
            .into_iter()
            .map(|i| {
                SatCellSpec {
                    bench: bench.to_string(),
                    spec: RilBlockSpec::size_2x2(),
                    blocks: 1 + i % 3,
                    seed: inputs.lock_seed.wrapping_mul(1000).wrapping_add(i as u64),
                    timeout_s: 60,
                    solver_threads: 1,
                }
                .key()
            })
            .collect();
        SweepFarm { cells }
    }
}

impl Bench for SweepFarm {
    fn pass(&mut self, tracer: Option<&Tracer>) -> PassOut {
        let mut out = PassOut {
            paths: WORKERS,
            attempted: self.cells.len() as u64,
            ..PassOut::default()
        };
        let _pass = span(tracer, "pass", BENCH);
        let dir = out_dir().join(format!(
            "farm-{}-{}",
            std::process::id(),
            PASS_DIRS.fetch_add(1, Ordering::Relaxed)
        ));
        let t_setup = Instant::now();
        let handle = {
            let _s = untimed_span(tracer, "coordinator.start", FARM);
            Coordinator::start(
                self.cells.clone(),
                CellCache::new(&dir, true),
                FarmConfig::default(),
            )
        };
        let mut handle = match handle {
            Ok(h) => h,
            Err(e) => {
                out.fail(format!("coordinator start failed: {e}"));
                return out;
            }
        };
        out.setup = t_setup.elapsed();

        let addr = handle.addr().to_string();
        let origin = tracer.map(Tracer::origin);
        let t_timed = Instant::now();
        let workers: Vec<(Result<_, String>, Option<Tracer>)> = std::thread::scope(|s| {
            let spawned: Vec<_> = (0..WORKERS)
                .map(|i| {
                    let (addr, handle) = (&addr, &handle);
                    s.spawn(move || {
                        let name = format!("w{i}");
                        let t = origin.map(Tracer::starting_at);
                        let _w = span(t.as_ref(), "worker", FARM);
                        let summary = run_worker(&WorkerConfig {
                            connect: addr.clone(),
                            name: name.clone(),
                            codec: WireCodec::Bin,
                            poll: POLL,
                        });
                        // The coordinator's lease-to-completion time of
                        // this worker's cells: the compute inside them.
                        let leased = handle
                            .snapshot()
                            .timing(&format!("farm.worker.{name}.cell.wall"))
                            .map_or(0, |h| h.sum_us);
                        derived(t.as_ref(), "cell", ATTACKS, Duration::from_micros(leased));
                        drop(_w);
                        (summary, t)
                    })
                })
                .collect();
            spawned
                .into_iter()
                .map(|h| h.join().expect("farm worker thread panicked"))
                .collect()
        });
        out.wall = t_timed.elapsed();

        for (summary, worker_tracer) in workers {
            if let Err(e) = summary {
                out.fail(format!("worker failed: {e}"));
            }
            if let (Some(t), Some(w)) = (tracer, worker_tracer) {
                t.absorb(w);
            }
        }
        let _checks = untimed_span(tracer, "checks", BENCH);
        let counts = handle.counts();
        if counts.done != self.cells.len() || counts.failed > 0 {
            out.fail(format!(
                "farm settled {} of {} cells ({} failed, {} pending, {} leased)",
                counts.done,
                self.cells.len(),
                counts.failed,
                counts.pending,
                counts.leased
            ));
        }
        let snap = handle.snapshot();
        for (metric, counter) in [
            ("farm.leased", "farm.cells.leased"),
            ("farm.completed", "farm.cells.completed"),
            ("farm.expired", "farm.cells.expired"),
            ("farm.duplicate", "farm.cells.duplicate"),
            ("farm.failed", "farm.cells.failed"),
        ] {
            out.add(metric, snap.counter(counter) as f64);
        }
        if snap.counter("farm.cells.expired") > 0 || snap.counter("farm.cells.failed") > 0 {
            out.fail("the coordinator expired or failed cells");
        }
        let cell_s = snap
            .timing("farm.cell.wall")
            .map_or(0.0, |h| h.sum_us as f64 / 1e6);
        out.add("farm.cell_s", cell_s);
        out.add(
            "farm.overhead_ms_per_cell",
            (WORKERS as f64 * out.wall.as_secs_f64() - cell_s) * 1e3 / self.cells.len() as f64,
        );
        handle.shutdown();

        let cache = CellCache::new(&dir, true);
        for key in &self.cells {
            let report = cache
                .get(key)
                .ok_or_else(|| "no payload in the cache".to_string())
                .and_then(|p| parse_cell_payload(&p))
                .and_then(|o| {
                    o.report
                        .ok_or_else(|| format!("cell `{}` has no report", o.cell))
                });
            match report {
                Ok(r) if r.result.succeeded() && r.functionally_correct == Some(true) => {
                    out.patterns += r.oracle_queries;
                    out.latencies_us.push(r.wall.as_secs_f64() * 1e6);
                    record_report(&mut out, &r);
                }
                Ok(r) => out.fail(format!(
                    "{}: {} (key correct: {:?})",
                    key.canonical(),
                    r.result.kind(),
                    r.functionally_correct
                )),
                Err(e) => out.fail(format!("{}: {e}", key.canonical())),
            }
        }
        finish_sat_rates(&mut out);
        if let Err(e) = std::fs::remove_dir_all(&dir) {
            out.fail(format!("removing {}: {e}", dir.display()));
        }
        out
    }
}
