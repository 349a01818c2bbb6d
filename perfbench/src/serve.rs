//! `oracle_serve`: the oracle service at saturation. Two client
//! connections in a closed loop with no think time — one sending
//! single-pattern `Query` requests, one sending 64-lane `QueryBatch`
//! requests — against four served chips that morph every 64 patterns.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use ril_attacks::{PatternBlock, ResponseBlock, MAX_LANES};
use ril_netlist::CompiledSim;
use ril_serve::{DesignSpec, Request, Response, ServeClient, ServeConfig, Server};
use ril_trace::MetricsSnapshot;

use crate::stats::{rank_percentile, sorted};
use crate::trace::{span, untimed_span, Tracer, BENCH, SERVE};
use crate::{splitmix64, Bench, Inputs, PassOut, Size};

/// Patterns between two morphs of each chip.
const MORPH_QUERIES: u64 = 64;

/// Distinct single patterns; requests cycle through them. Each chip
/// morphs (and so clears its response memo) every 64 patterns, long
/// before a pattern comes round again.
const SINGLE_POOL: usize = 4096;

/// Distinct 64-lane batches; requests cycle through them.
const BATCH_POOL: usize = 128;

/// Failure messages kept per pass; the rest are only counted.
const KEPT_FAILURES: usize = 8;

/// The `oracle_serve` workload.
pub struct OracleServe {
    chips: Vec<DesignSpec>,
    singles: Vec<Vec<bool>>,
    single_rows: Vec<Vec<bool>>,
    batches: Vec<Vec<Vec<bool>>>,
    batch_rows: Vec<Vec<Vec<bool>>>,
    n_single: usize,
    n_batch: usize,
}

impl OracleServe {
    /// Four chips (the c7552 host with two 8x8 blocks, scan off, lock
    /// seeds `seed + 50 ..= seed + 53`), pattern pools drawn from the
    /// seed, and each pattern's expected response computed on the
    /// unlocked host: with scan off a morph must not change what a chip
    /// answers.
    ///
    /// # Errors
    ///
    /// Returns a message if the host cannot be built or simulated.
    pub fn new(inputs: Inputs) -> Result<OracleServe, String> {
        let (benchmark, blocks, n_single, n_batch) = match inputs.size {
            Size::Full => ("c7552", 2, 24_000, 4_000),
            Size::Tiny => ("adder:16", 1, 400, 40),
        };
        let chips: Vec<DesignSpec> = (50..54)
            .map(|i| DesignSpec {
                benchmark: benchmark.to_string(),
                spec: "8x8".to_string(),
                blocks,
                seed: inputs.seed.wrapping_add(i),
                scan: false,
                zero_se: false,
            })
            .collect();
        let host = chips[0].host()?;
        let width = host.data_inputs().len();
        let mut sim = CompiledSim::new(&host).map_err(|e| e.to_string())?;
        let mut eval = |rows: &[Vec<bool>]| -> Vec<Vec<bool>> {
            let block = PatternBlock::pack(rows);
            let out = sim.eval_words(block.words(), &[]);
            ResponseBlock::from_words(out, rows.len()).unpack()
        };
        let singles: Vec<Vec<bool>> = (0..SINGLE_POOL)
            .map(|i| pattern(inputs.seed, i as u64, width))
            .collect();
        let single_rows = singles.chunks(MAX_LANES).flat_map(&mut eval).collect();
        let batches: Vec<Vec<Vec<bool>>> = (0..BATCH_POOL)
            .map(|b| {
                (0..MAX_LANES)
                    .map(|j| pattern(inputs.seed, ((b * MAX_LANES + j) as u64) | 1 << 40, width))
                    .collect()
            })
            .collect();
        let batch_rows = batches.iter().map(|b| eval(b)).collect();
        Ok(OracleServe {
            chips,
            singles,
            single_rows,
            batches,
            batch_rows,
            n_single,
            n_batch,
        })
    }
}

/// Pattern `index` of the stream drawn from `seed`.
fn pattern(seed: u64, index: u64, width: usize) -> Vec<bool> {
    let mut state = splitmix64(seed ^ splitmix64(index));
    (0..width)
        .map(|b| {
            if b % 64 == 0 && b > 0 {
                state = splitmix64(state);
            }
            state >> (b % 64) & 1 == 1
        })
        .collect()
}

/// What one connection saw.
#[derive(Default)]
struct ConnOut {
    start: Option<Instant>,
    end: Option<Instant>,
    rtt_us: Vec<f64>,
    failures: usize,
    messages: Vec<String>,
    tracer: Option<Tracer>,
}

impl ConnOut {
    fn fail(&mut self, message: String) {
        self.failures += 1;
        if self.messages.len() < KEPT_FAILURES {
            self.messages.push(message);
        }
    }
}

/// Sends `reqs` in order on a fresh connection, cycling through the pool,
/// and checks each answer with `check`.
fn drive(
    addr: &str,
    reqs: &[Request],
    count: usize,
    barrier: &Barrier,
    origin: Option<Instant>,
    check: impl Fn(usize, &Response) -> Result<(), String>,
) -> ConnOut {
    let mut out = ConnOut {
        tracer: origin.map(Tracer::starting_at),
        ..ConnOut::default()
    };
    let client = ServeClient::builder(addr.to_string()).build();
    let mut client = match client {
        Ok(mut c) => match c.negotiation() {
            Ok(_) => Some(c),
            Err(e) => {
                out.fail(format!("negotiation failed: {e}"));
                None
            }
        },
        Err(e) => {
            out.fail(format!("client configuration: {e}"));
            None
        }
    };
    barrier.wait();
    let Some(client) = client.as_mut() else {
        return out;
    };
    out.rtt_us.reserve(count);
    let tracer = out.tracer.take();
    out.start = Some(Instant::now());
    for i in 0..count {
        let k = i % reqs.len();
        let t0 = Instant::now();
        let resp = {
            let _s = span(tracer.as_ref(), "request", SERVE);
            client.request(&reqs[k])
        };
        out.rtt_us.push(t0.elapsed().as_secs_f64() * 1e6);
        match resp {
            Ok(resp) => {
                if let Err(e) = check(k, &resp) {
                    out.fail(format!("request {i}: {e}"));
                }
            }
            Err(e) => out.fail(format!("request {i}: {e}")),
        }
    }
    out.end = Some(Instant::now());
    out.tracer = tracer;
    out
}

impl Bench for OracleServe {
    fn pass(&mut self, tracer: Option<&Tracer>) -> PassOut {
        let mut out = PassOut {
            paths: 2,
            ..PassOut::default()
        };
        let _pass = span(tracer, "pass", BENCH);
        let t_setup = Instant::now();
        let handle = {
            let _s = untimed_span(tracer, "server.start", SERVE);
            Server::start(ServeConfig {
                morph_queries: Some(MORPH_QUERIES),
                ..ServeConfig::default()
            })
        };
        let handle = match handle {
            Ok(h) => h,
            Err(e) => {
                out.fail(format!("server start failed: {e}"));
                return out;
            }
        };
        let addr = handle.addr().to_string();
        let activated = (|| -> Result<(ServeClient, Vec<u64>), String> {
            let mut admin = ServeClient::builder(addr.clone())
                .build()
                .map_err(|e| format!("client configuration: {e}"))?;
            let _s = untimed_span(tracer, "activate", SERVE);
            let t = Instant::now();
            let mut ids = Vec::new();
            for design in &self.chips {
                match admin.request(&Request::Activate {
                    design: design.clone(),
                }) {
                    Ok(Response::Activated { chip, inputs, .. })
                        if inputs == self.singles[0].len() =>
                    {
                        ids.push(chip);
                    }
                    other => return Err(format!("activation of seed {}: {other:?}", design.seed)),
                }
            }
            // Activation is where the server locks each chip.
            out.add("lock.s", t.elapsed().as_secs_f64());
            Ok((admin, ids))
        })();
        let (mut admin, ids) = match activated {
            Ok(a) => a,
            Err(e) => {
                out.fail(e);
                handle.shutdown();
                return out;
            }
        };
        out.setup = t_setup.elapsed();

        let singles: Vec<Request> = self
            .singles
            .iter()
            .enumerate()
            .map(|(k, p)| Request::Query {
                chip: ids[k % ids.len()],
                inputs: p.clone(),
            })
            .collect();
        let batches: Vec<Request> = self
            .batches
            .iter()
            .enumerate()
            .map(|(k, b)| Request::QueryBatch {
                chip: ids[k % ids.len()],
                patterns: b.clone(),
            })
            .collect();
        let barrier = Barrier::new(2);
        let origin = tracer.map(Tracer::origin);
        let (single, batch) = std::thread::scope(|s| {
            let single = s.spawn(|| {
                drive(
                    &addr,
                    &singles,
                    self.n_single,
                    &barrier,
                    origin,
                    |k, resp| match resp {
                        Response::Outputs { bits, .. } if *bits == self.single_rows[k] => Ok(()),
                        Response::Outputs { .. } => Err("response differs from the host".into()),
                        other => Err(format!("unexpected {other:?}")),
                    },
                )
            });
            let batch = s.spawn(|| {
                drive(
                    &addr,
                    &batches,
                    self.n_batch,
                    &barrier,
                    origin,
                    |k, resp| match resp {
                        Response::Batch { rows, .. } if *rows == self.batch_rows[k] => Ok(()),
                        Response::Batch { .. } => Err("batch differs from the host".into()),
                        other => Err(format!("unexpected {other:?}")),
                    },
                )
            });
            (
                single.join().expect("single-request connection panicked"),
                batch.join().expect("batch connection panicked"),
            )
        });
        let start = single.start.into_iter().chain(batch.start).min();
        let end = single.end.into_iter().chain(batch.end).max();
        out.wall = match (start, end) {
            (Some(s), Some(e)) => e - s,
            _ => Duration::ZERO,
        };
        out.attempted = (self.n_single + self.n_batch) as u64;
        out.patterns = (self.n_single + self.n_batch * MAX_LANES) as u64;
        let rtt_sum_us: f64 = single.rtt_us.iter().chain(&batch.rtt_us).sum();
        let batch_rtts = sorted(&batch.rtt_us);
        if let (Some(p50), Some(p99)) = (
            rank_percentile(&batch_rtts, 0.50),
            rank_percentile(&batch_rtts, 0.99),
        ) {
            out.add("serve.batch_p50_us", p50);
            out.add("serve.batch_p99_us", p99);
        }
        out.add("oracle.calls", out.attempted as f64);
        out.add(
            "oracle.lanes_per_call",
            out.patterns as f64 / out.attempted as f64,
        );
        for conn in [single, batch] {
            if let (Some(t), Some(conn_tracer)) = (tracer, conn.tracer) {
                t.absorb(conn_tracer);
            }
            out.failed += conn.failures as u64;
            out.failures.extend(conn.messages);
            if conn.failures > KEPT_FAILURES {
                out.failures.push(format!(
                    "… and {} more failed requests",
                    conn.failures - KEPT_FAILURES
                ));
            }
            if out.latencies_us.is_empty() {
                out.latencies_us = conn.rtt_us;
            }
        }

        let stats = {
            let _s = untimed_span(tracer, "stats", SERVE);
            admin.stats()
        };
        match stats {
            Ok(stats) => {
                let m = &stats.metrics;
                let (queries, patterns) = (
                    m.counter("serve.queries"),
                    m.counter("serve.query.patterns"),
                );
                if queries != out.attempted || patterns != out.patterns {
                    out.fail(format!(
                        "server counted {queries} queries / {patterns} patterns, \
                         the clients sent {} / {}",
                        out.attempted, out.patterns
                    ));
                }
                let calls = out.attempted;
                record_server_phases(&mut out, m, calls, rtt_sum_us);
            }
            Err(e) => out.fail(format!("stats fetch failed: {e}")),
        }
        handle.shutdown();
        out
    }
}

/// Books the server's own phase timings (from its stats snapshot) and the
/// part of the clients' round trips they leave unexplained: reactor wake
/// and queueing, the socket, the client codec. The server rounds each
/// phase sample down to a whole microsecond, so sub-microsecond phases
/// undercount and that time lands in `serve.wait_us`.
pub fn record_server_phases(out: &mut PassOut, m: &MetricsSnapshot, calls: u64, rtt_sum_us: f64) {
    let sum = |name: &str| m.timing(name).map_or(0.0, |h| h.sum_us as f64);
    let (decode, eval, morph, write) = (
        sum("serve.phase.decode"),
        sum("serve.phase.eval"),
        sum("serve.phase.morph"),
        sum("serve.phase.write"),
    );
    let patterns = m.counter("serve.query.patterns");
    out.add("codec.decode_us", decode);
    out.add("codec.write_us", write);
    out.add("sim.eval_us", eval);
    if patterns > 0 {
        out.add("sim.ns_per_pattern", eval * 1e3 / patterns as f64);
    }
    out.add("morph.us", morph);
    out.add("morph.count", m.counter("serve.morphs") as f64);
    if calls > 0 {
        out.add(
            "serve.wait_us",
            (rtt_sum_us - decode - eval - morph - write) / calls as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_depend_only_on_seed_and_index() {
        assert_eq!(pattern(7, 3, 100), pattern(7, 3, 100));
        assert_ne!(pattern(7, 3, 100), pattern(8, 3, 100));
        assert_ne!(pattern(7, 3, 100), pattern(7, 4, 100));
        let ones = pattern(7, 3, 4096).iter().filter(|&&b| b).count();
        assert!(
            (1800..2300).contains(&ones),
            "roughly balanced bits: {ones}"
        );
    }
}
