//! Serve load generator: N client threads hammering M hosted chips on a
//! live in-process `ril-serve` instance, with **exact** wire-latency
//! quantiles from the raw per-request samples.
//!
//! This is the calibration companion to the server's own telemetry: the
//! server publishes log₂-bucketed latency histograms (factor-2 quantile
//! accuracy), while this experiment keeps every raw round-trip sample
//! and reports exact p50/p99/p999 — the numbers the histogram estimates
//! are validated against. The run also checks the serve consistency
//! invariant from the other side of the wire: after the load drains, the
//! server's `serve.queries` counter, its `serve.query.latency` histogram
//! count, and the per-chip histogram counts must all equal the number of
//! query requests the clients actually sent.
//!
//! Cells are timed live and never cached — a throughput number read back
//! from another machine's cache would be meaningless — and the run
//! **hard-asserts** a qps floor and a p99 ceiling on loopback.

use ril_serve::{DesignSpec, Request, Response, ServeClient, ServeConfig, Server};
use std::time::Instant;

use crate::experiment::{Experiment, ExperimentError, ExperimentOutput, RunContext};
use crate::{print_table, RunConfig};

/// Multi-threaded client load against a live serve instance.
pub struct ServeLoad;

/// Aggregate floor across all client threads. Loopback round trips on a
/// tiny adder run in the tens of microseconds; 300 qps leaves two orders
/// of magnitude of headroom for slow CI machines.
const MIN_QPS: f64 = 300.0;

/// Per-request p99 ceiling (µs) on loopback. 50 ms is pathological for a
/// framed TCP round trip evaluating an 8-bit adder.
const MAX_P99_US: u64 = 50_000;

/// Design seed base — chip `i` uses `SEED + i`.
const SEED: u64 = 7208;

fn design(i: u64) -> DesignSpec {
    DesignSpec {
        benchmark: "adder:8".to_string(),
        spec: "2x2".to_string(),
        blocks: 2,
        seed: SEED + i,
        scan: false,
        zero_se: false,
    }
}

/// Exact quantile from sorted raw samples: the sample at rank
/// `ceil(q·n)` (1-based) — the same convention the histogram estimator's
/// property test uses, so the two are directly comparable.
fn exact_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl Experiment for ServeLoad {
    fn name(&self) -> &'static str {
        "serve_load"
    }

    fn describe(&self) -> &'static str {
        "N client threads x M served chips — exact latency quantiles + qps gate"
    }

    fn run(&self, cfg: &RunConfig, ctx: &RunContext) -> Result<ExperimentOutput, ExperimentError> {
        let (chips, threads, per_thread) = if cfg.smoke { (2, 2, 500) } else { (4, 4, 5000) };
        let handle =
            Server::start(ServeConfig::default()).map_err(|e| format!("serve bind failed: {e}"))?;
        let addr = handle.addr().to_string();

        // Provision the M target chips up front; the load threads then
        // spread round-robin over the resulting ids.
        let mut setup = ServeClient::builder(addr.clone())
            .build()
            .map_err(|e| format!("client configuration: {e}"))?;
        let mut targets: Vec<(u64, usize)> = Vec::with_capacity(chips);
        for i in 0..chips as u64 {
            match setup.request(&Request::Activate { design: design(i) }) {
                Ok(Response::Activated { chip, inputs, .. }) => targets.push((chip, inputs)),
                Ok(other) => return Err(format!("activation refused: {other:?}").into()),
                Err(e) => return Err(format!("activation failed: {e}").into()),
            }
        }
        ctx.note(&format!(
            "serve_load — {threads} threads x {per_thread} queries over {chips} chips \
             (adder:8, 2 x 2x2) at {addr}",
        ));

        let started = Instant::now();
        let per_thread_samples: Vec<Result<Vec<u64>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let addr = addr.clone();
                    let (chip, width) = targets[t % targets.len()];
                    s.spawn(move || -> Result<Vec<u64>, String> {
                        let mut client = ServeClient::builder(addr)
                            .build()
                            .map_err(|e| format!("client configuration: {e}"))?;
                        let mut samples = Vec::with_capacity(per_thread);
                        for i in 0..per_thread {
                            let mix = (i as u32).wrapping_mul(2654435761) ^ t as u32;
                            let inputs: Vec<bool> =
                                (0..width).map(|b| (mix >> (b % 32)) & 1 == 1).collect();
                            let t0 = Instant::now();
                            match client.request(&Request::Query { chip, inputs }) {
                                Ok(Response::Outputs { .. }) => {
                                    samples.push(t0.elapsed().as_micros() as u64);
                                }
                                Ok(other) => {
                                    return Err(format!("thread {t}: bad response {other:?}"))
                                }
                                Err(e) => return Err(format!("thread {t}: query failed: {e}")),
                            }
                        }
                        Ok(samples)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("load thread panicked".into()))
                })
                .collect()
        });
        let wall_s = started.elapsed().as_secs_f64();

        let mut samples: Vec<u64> = Vec::with_capacity(threads * per_thread);
        for r in per_thread_samples {
            samples.extend(r.map_err(ExperimentError::Other)?);
        }
        samples.sort_unstable();
        let requests = samples.len();
        let qps = requests as f64 / wall_s.max(1e-9);
        let (p50, p99, p999) = (
            exact_us(&samples, 0.50),
            exact_us(&samples, 0.99),
            exact_us(&samples, 0.999),
        );
        let max_us = *samples.last().unwrap_or(&0);

        // Server-side consistency: the counter, the aggregate histogram,
        // and the per-chip histograms must all have seen exactly the
        // query *requests* the clients sent.
        let expected = requests as u64;
        let metrics = handle.metrics();
        handle.shutdown();
        let counted = metrics.counter("serve.queries");
        let histo = metrics.timing("serve.query.latency").map_or(0, |h| h.count);
        let per_chip: u64 = targets
            .iter()
            .filter_map(|(chip, _)| metrics.timing(&format!("chip.{chip}.query.latency")))
            .map(|h| h.count)
            .sum();
        // Every request is a single-pattern query.
        let pattern_count = metrics.counter("serve.query.patterns");
        if counted != expected || histo != expected || per_chip != expected {
            return Err(format!(
                "serve telemetry inconsistent: clients sent {expected} query requests but the \
                 server counted {counted}, sampled {histo} aggregate latencies, {per_chip} per-chip"
            )
            .into());
        }
        if pattern_count != expected {
            return Err(format!(
                "serve pattern accounting inconsistent: clients sent {expected} \
                 patterns but the server counted {pattern_count}"
            )
            .into());
        }

        print_table(
            "Serve load (adder:8, loopback)",
            &[
                "Threads", "Chips", "Requests", "Wall (s)", "qps", "p50", "p99", "p99.9", "max",
            ],
            &[vec![
                threads.to_string(),
                chips.to_string(),
                requests.to_string(),
                format!("{wall_s:.2}"),
                format!("{qps:.0}"),
                format!("{p50}µs"),
                format!("{p99}µs"),
                format!("{p999}µs"),
                format!("{max_us}µs"),
            ]],
        );
        let artifact = ctx.write_output(
            "BENCH_serve_load.json",
            &format!(
                r#"{{"benchmark":"adder:8","spec":"2x2","blocks":2,"seed":{SEED},"chips":{chips},"threads":{threads},"per_thread":{per_thread},"requests":{requests},"wall_s":{wall_s:.6},"qps":{qps:.1},"p50_us":{p50},"p99_us":{p99},"p999_us":{p999},"max_us":{max_us},"min_qps":{MIN_QPS},"max_p99_us":{MAX_P99_US}}}"#,
            ),
        )?;

        // The acceptance gates: consistency was enforced above; the
        // throughput floor and tail-latency ceiling are enforced here.
        if qps < MIN_QPS {
            return Err(format!(
                "serve sustained only {qps:.0} qps over {requests} requests \
                 ({threads} threads, {wall_s:.2}s); the floor is {MIN_QPS} qps"
            )
            .into());
        }
        if p99 > MAX_P99_US {
            return Err(format!(
                "serve p99 latency {p99}µs exceeds the {MAX_P99_US}µs loopback ceiling \
                 (p50 {p50}µs, p99.9 {p999}µs, max {max_us}µs)"
            )
            .into());
        }
        Ok(ExperimentOutput {
            summary: format!(
                "{requests} requests, {threads} threads x {chips} chips; {qps:.0} qps; \
                 p50 {p50}µs / p99 {p99}µs / p99.9 {p999}µs; server counters consistent",
            ),
            files: vec![artifact],
        })
    }
}
