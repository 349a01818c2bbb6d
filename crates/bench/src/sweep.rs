//! Thread-based parallel sweep driver for the benchmark tables.
//!
//! Every cell of Table I / Table III is an independent lock-then-attack
//! experiment (its own netlist copy, oracle, and solver sessions — nothing
//! shared mutably), so the tables fan cells across cores with plain scoped
//! threads pulling from an atomic work queue. No thread pool dependency:
//! the whole driver is `std::thread::scope` + one `AtomicUsize`.
//!
//! The worker count is the caller's: experiments pass
//! `RunConfig::threads` (the validated `RIL_THREADS`, defaulting to the
//! machine's available parallelism) through `RunContext::sweep`.
//! `RIL_THREADS=1` gives fully serial runs (for clean per-cell wall-clock
//! comparisons, since parallel cells share memory bandwidth).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `job` over every item on `workers` scoped worker threads (clamped
/// to `1..=items.len()`), returning results in input order. Jobs are
/// claimed from an atomic queue, so long cells (an `∞` attack next to a
/// 0.3 s one) don't stall the sweep the way fixed chunking would.
///
/// Every worker thread installs `tracer` with `parent` as the ambient
/// parent span before pulling jobs, so spans opened inside `job` (cells,
/// attacks, solver calls) attach to the sweep's owning span instead of
/// vanishing. Workers are plain `std::thread`s, which would otherwise
/// start with no thread-local trace context; pass a disabled tracer for
/// an untraced sweep.
///
/// # Panics
///
/// Propagates a panicking job once all workers are joined.
pub fn parallel_sweep_traced<T, R, F>(
    workers: usize,
    tracer: &ril_trace::Tracer,
    parent: ril_trace::SpanId,
    items: &[T],
    job: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.max(1).min(n.max(1));
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _trace_ctx = tracer.install(parent);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = job(i, &items[i]);
                    *results[i].lock().expect("result slot") = Some(r);
                }
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("every item processed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep<T: Sync, R: Send>(
        workers: usize,
        items: &[T],
        job: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        let tracer = ril_trace::Tracer::disabled();
        parallel_sweep_traced(workers, &tracer, ril_trace::SpanId::NONE, items, job)
    }

    #[test]
    fn results_preserve_input_order() {
        let items: Vec<usize> = (0..64).collect();
        let squares = sweep(4, &items, |i, &x| {
            assert_eq!(i, x);
            x * x
        });
        assert_eq!(squares, (0..64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = sweep(4, &[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn each_item_processed_exactly_once() {
        let hits = AtomicUsize::new(0);
        let items: Vec<u32> = (0..257).collect();
        let out = sweep(4, &items, |_, &x| {
            hits.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 257);
        assert_eq!(hits.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn explicit_worker_count_is_honored() {
        let items: Vec<usize> = (0..16).collect();
        let out = sweep(3, &items, |_, &x| x + 1);
        assert_eq!(out, (1..=16).collect::<Vec<_>>());
        // Degenerate worker counts are clamped, not panicked on.
        let out = sweep(0, &items[..2], |_, &x| x);
        assert_eq!(out, vec![0, 1]);
    }
}
