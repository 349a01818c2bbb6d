//! The two attack workloads: `attack_local` (Table I cells against an
//! in-process oracle) and `attack_remote_morph` (the Table V dynamic row
//! against a served chip that morphs every two queries).

use std::time::{Duration, Instant};

use ril_attacks::satattack::{sat_attack, SatAttackConfig};
use ril_attacks::{attacker_view, AttackReport, AttackResult, Oracle};
use ril_core::{Obfuscator, RilBlockSpec};
use ril_netlist::{generators, Netlist};
use ril_serve::{DesignSpec, RemoteOracle, ServeClient, ServeConfig, Server};

use crate::oracle::TimedOracle;
use crate::serve::record_server_phases;
use crate::stats::{rank_percentile, sorted};
use crate::trace::{derived, span, untimed_span, Tracer, ATTACKS, BENCH, CORE, SAT, SERVE};
use crate::{splitmix64, Bench, Inputs, PassOut, Size};

/// An attack budget no measured cell reaches: the slowest converging
/// cell took 14.5 s on the held-out lock seeds tried, so a timeout here
/// is a failure, never a measurement.
const ATTACK_BUDGET: Duration = Duration::from_secs(30);

/// Random patterns `equivalent_under_key` checks a recovered key on
/// (64 lanes each), as the experiments do.
const VERIFY_BLOCKS: usize = 32;

/// One Table I cell: a block shape, how many blocks, the obfuscator seed.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    spec: RilBlockSpec,
    blocks: usize,
    seed: u64,
}

/// `attack_local`: lock, attack and verify three Table I cells per pass.
pub struct Local {
    host: Netlist,
    cells: Vec<Cell>,
    order: Vec<usize>,
    /// Flip one bit of this oracle call's response (tests only).
    pub lie_at: Option<u64>,
}

impl Local {
    /// The Table I cells that converge on the c7552-class host — 1×8x8
    /// and 1×8x8x8 at lock seed + 1, 2×2x2 at lock seed + 2, the seeds
    /// `table1` gives rows 1 and 2 — in an order drawn from the seed.
    ///
    /// # Errors
    ///
    /// Returns a message if the host cannot be built.
    pub fn new(inputs: Inputs) -> Result<Local, String> {
        let l = inputs.lock_seed;
        let (host, cells) = match inputs.size {
            Size::Full => (
                generators::benchmark("c7552").ok_or("unknown host c7552")?,
                vec![
                    Cell {
                        spec: RilBlockSpec::size_8x8(),
                        blocks: 1,
                        seed: l.wrapping_add(1),
                    },
                    Cell {
                        spec: RilBlockSpec::size_8x8x8(),
                        blocks: 1,
                        seed: l.wrapping_add(1),
                    },
                    Cell {
                        spec: RilBlockSpec::size_2x2(),
                        blocks: 2,
                        seed: l.wrapping_add(2),
                    },
                ],
            ),
            Size::Tiny => (
                generators::adder(16),
                vec![
                    Cell {
                        spec: RilBlockSpec::size_2x2(),
                        blocks: 1,
                        seed: l.wrapping_add(1),
                    },
                    Cell {
                        spec: RilBlockSpec::size_8x8(),
                        blocks: 1,
                        seed: l.wrapping_add(2),
                    },
                ],
            ),
        };
        let order = permutation(inputs.seed, cells.len());
        Ok(Local {
            host,
            cells,
            order,
            lie_at: None,
        })
    }
}

/// A seeded shuffle of `0..n`.
pub(crate) fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(seed ^ i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

impl Bench for Local {
    fn pass(&mut self, tracer: Option<&Tracer>) -> PassOut {
        let mut out = PassOut {
            paths: 1,
            ..PassOut::default()
        };
        let mut rtts = Vec::new();
        let _pass = span(tracer, "pass", BENCH);
        for &i in &self.order {
            let cell = self.cells[i];
            let _cell = span(tracer, "cell", BENCH);
            out.attempted += 1;
            let t_setup = Instant::now();
            let locked = {
                let _s = untimed_span(tracer, "lock", CORE);
                let t = Instant::now();
                let locked = Obfuscator::new(cell.spec)
                    .blocks(cell.blocks)
                    .seed(cell.seed)
                    .obfuscate(&self.host);
                out.add("lock.s", t.elapsed().as_secs_f64());
                locked
            };
            let locked = match locked {
                Ok(l) => l,
                Err(e) => {
                    out.fail(format!("{}: lock failed: {e}", cell.spec.cache_token()));
                    continue;
                }
            };
            let view = attacker_view(&locked);
            let built = {
                let _s = untimed_span(tracer, "oracle.build", ATTACKS);
                Oracle::new(&locked)
            };
            let mut chip = match built {
                Ok(o) => o,
                Err(e) => {
                    out.fail(format!("oracle build failed: {e}"));
                    continue;
                }
            };
            out.setup += t_setup.elapsed();

            let t_timed = Instant::now();
            let mut oracle = TimedOracle::new(&mut chip, tracer, ATTACKS, self.lie_at);
            let report = attack(&view, &mut oracle, &attack_config(None, 8), tracer);
            let verdict = {
                let _v = span(tracer, "verify", ATTACKS);
                let t = Instant::now();
                let v = report
                    .result
                    .key()
                    .map(|k| locked.equivalent_under_key(k, VERIFY_BLOCKS));
                out.add("verify.s", t.elapsed().as_secs_f64());
                v
            };
            let cell_wall = t_timed.elapsed();
            out.wall += cell_wall;
            // The blocking request is the cell. The p50 of miter solves
            // followed the host's memory contention more than the pass
            // wall did: a run-to-run spread of 0.29 against 0.18 on a
            // shared 2-vCPU VM.
            out.latencies_us.push(cell_wall.as_secs_f64() * 1e6);
            match verdict {
                Some(Ok(true)) => {}
                Some(Ok(false)) => out.fail(format!(
                    "{}×{} seed {}: recovered key is not equivalent",
                    cell.blocks,
                    cell.spec.cache_token(),
                    cell.seed
                )),
                Some(Err(e)) => out.fail(format!("verification failed: {e}")),
                None => out.fail(format!(
                    "{}×{} seed {}: no key ({})",
                    cell.blocks,
                    cell.spec.cache_token(),
                    cell.seed,
                    report.result.kind()
                )),
            }
            out.patterns += oracle.lanes;
            record_attack(&mut out, &report, &oracle);
            rtts.append(&mut oracle.rtt_us);
        }
        finish_attack_layers(&mut out, &rtts);
        out
    }
}

/// The attack configuration every workload uses: one solver thread, the
/// default solver, a budget only a broken build reaches.
fn attack_config(max_iterations: Option<usize>, dip_batch: usize) -> SatAttackConfig {
    SatAttackConfig {
        timeout: Some(ATTACK_BUDGET),
        max_iterations,
        dip_batch,
        ..SatAttackConfig::default()
    }
}

/// Runs the attack under a span, booking its reported solve time.
fn attack(
    view: &Netlist,
    oracle: &mut TimedOracle<'_>,
    cfg: &SatAttackConfig,
    tracer: Option<&Tracer>,
) -> AttackReport {
    let _a = span(tracer, "attack", ATTACKS);
    let report = sat_attack(view, oracle, cfg);
    derived(tracer, "sat.solve", SAT, solve_wall(&report));
    report
}

/// Sum of the report's per-solve wall times.
#[must_use]
pub fn solve_wall(report: &AttackReport) -> Duration {
    report.iteration_stats.iter().map(|it| it.wall).sum()
}

/// Adds one report's solver and DIP-loop accounting to the pass.
pub fn record_report(out: &mut PassOut, report: &AttackReport) {
    let s = &report.miter_stats;
    out.add("sat.solve_s", solve_wall(report).as_secs_f64());
    out.add("sat.conflicts", s.conflicts as f64);
    out.add("sat.propagations", s.propagations as f64);
    out.add("sat.decisions", s.decisions as f64);
    out.add("sat.learned", s.learned as f64);
    out.add("sat.deleted", s.deleted as f64);
    out.add("attack.dips", report.iterations as f64);
    out.add("attack.solves", report.iteration_stats.len() as f64);
}

fn record_attack(out: &mut PassOut, report: &AttackReport, oracle: &TimedOracle<'_>) {
    record_report(out, report);
    let other =
        report.wall.as_secs_f64() - solve_wall(report).as_secs_f64() - oracle.busy.as_secs_f64();
    out.add("attack.other_s", other);
    out.add("oracle.calls", oracle.calls as f64);
    out.add("oracle.patterns", oracle.lanes as f64);
    out.add("oracle.busy_s", oracle.busy.as_secs_f64());
}

/// The rates and percentiles that need a whole pass's sums.
pub fn finish_sat_rates(out: &mut PassOut) {
    let solve = out.layer.get("sat.solve_s").copied().unwrap_or(0.0);
    if solve > 0.0 {
        let conflicts = out.layer.get("sat.conflicts").copied().unwrap_or(0.0);
        let props = out.layer.get("sat.propagations").copied().unwrap_or(0.0);
        out.layer.insert("sat.conflicts_per_s", conflicts / solve);
        out.layer.insert("sat.props_per_s", props / solve);
    }
}

fn finish_attack_layers(out: &mut PassOut, rtts: &[f64]) {
    finish_sat_rates(out);
    let calls = out.layer.get("oracle.calls").copied().unwrap_or(0.0);
    let patterns = out.layer.remove("oracle.patterns").unwrap_or(0.0);
    if calls > 0.0 {
        out.layer.insert("oracle.lanes_per_call", patterns / calls);
    }
    let rtts = sorted(rtts);
    if let (Some(p50), Some(p95)) = (rank_percentile(&rtts, 0.50), rank_percentile(&rtts, 0.95)) {
        out.layer.insert("oracle.rtt_p50_us", p50);
        out.layer.insert("oracle.rtt_p95_us", p95);
    }
}

/// `attack_remote_morph`: the `dynamic_defense` chip served with a morph
/// every two queries, attacked over loopback one DIP at a time until the
/// DIP cap. The attack never converges (each morph re-rolls the
/// Scan-Enable keys), so the work per pass is fixed by the cap.
pub struct RemoteMorph {
    design: DesignSpec,
    max_dips: usize,
}

/// Queries between two morphs of the served chip.
const MORPH_QUERIES: u64 = 2;

impl RemoteMorph {
    /// The `dynamic_defense` design (c7552, 2×2x2 with Scan-Enable,
    /// provisioned transparent) at lock seed + 1, capped at 300 DIPs.
    #[must_use]
    pub fn new(inputs: Inputs) -> RemoteMorph {
        let (benchmark, blocks, max_dips) = match inputs.size {
            Size::Full => ("c7552", 2, 300),
            Size::Tiny => ("adder:16", 1, 40),
        };
        RemoteMorph {
            design: DesignSpec {
                benchmark: benchmark.to_string(),
                spec: "2x2".to_string(),
                blocks,
                seed: inputs.lock_seed.wrapping_add(1),
                scan: true,
                zero_se: true,
            },
            max_dips,
        }
    }
}

impl Bench for RemoteMorph {
    fn pass(&mut self, tracer: Option<&Tracer>) -> PassOut {
        let mut out = PassOut {
            paths: 1,
            attempted: 1,
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
        let prepared = (|| -> Result<_, String> {
            let locked = {
                let _s = untimed_span(tracer, "lock", CORE);
                let t = Instant::now();
                let locked = self.design.build();
                out.add("lock.s", t.elapsed().as_secs_f64());
                locked?
            };
            let view = attacker_view(&locked);
            let _s = untimed_span(tracer, "activate", SERVE);
            let client = ServeClient::builder(handle.addr().to_string())
                .build()
                .map_err(|e| format!("client configuration: {e}"))?;
            let remote = RemoteOracle::activate_with(client, &self.design)
                .map_err(|e| format!("activation failed: {e}"))?;
            Ok((locked, view, remote))
        })();
        let (locked, view, mut remote) = match prepared {
            Ok(p) => p,
            Err(e) => {
                out.fail(e);
                handle.shutdown();
                return out;
            }
        };
        out.setup = t_setup.elapsed();

        let t_timed = Instant::now();
        let mut oracle = TimedOracle::new(&mut remote, tracer, SERVE, None);
        let report = attack(
            &view,
            &mut oracle,
            &attack_config(Some(self.max_dips), 1),
            tracer,
        );
        out.wall = t_timed.elapsed();
        out.patterns = oracle.lanes;
        out.latencies_us.clone_from(&oracle.rtt_us);
        record_attack(&mut out, &report, &oracle);
        let rtts = std::mem::take(&mut oracle.rtt_us);
        let (calls, lanes) = (oracle.calls, oracle.lanes);
        let rtt_sum_us: f64 = rtts.iter().sum();

        let _checks = untimed_span(tracer, "checks", BENCH);
        match &report.result {
            AttackResult::Timeout if report.iterations == self.max_dips => {}
            AttackResult::ExactKey(key) => {
                let _v = span(tracer, "verify", ATTACKS);
                let t = Instant::now();
                match locked.equivalent_under_key(key, VERIFY_BLOCKS) {
                    Ok(true) => {}
                    Ok(false) => out.fail("recovered key is not equivalent"),
                    Err(e) => out.fail(format!("verification failed: {e}")),
                }
                out.add("verify.s", t.elapsed().as_secs_f64());
            }
            other => out.fail(format!(
                "attack stopped after {} of {} DIPs: {}",
                report.iterations,
                self.max_dips,
                other.kind()
            )),
        }
        out.add("morph.rekeys_seen", remote.generation_changes() as f64);
        let stats = {
            let _s = span(tracer, "stats", SERVE);
            remote.client().stats()
        };
        match stats {
            Ok(stats) => {
                let m = &stats.metrics;
                let (queries, patterns) = (
                    m.counter("serve.queries"),
                    m.counter("serve.query.patterns"),
                );
                if queries != calls || patterns != lanes {
                    out.fail(format!(
                        "server counted {queries} queries / {patterns} patterns, \
                         the attack sent {calls} / {lanes}"
                    ));
                }
                record_server_phases(&mut out, m, calls, rtt_sum_us);
            }
            Err(e) => out.fail(format!("stats fetch failed: {e}")),
        }
        handle.shutdown();
        finish_attack_layers(&mut out, &rtts);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_seeded_shuffle() {
        for seed in 0..20 {
            let mut p = permutation(seed, 3);
            assert_eq!(p, permutation(seed, 3));
            p.sort_unstable();
            assert_eq!(p, vec![0, 1, 2]);
        }
        let distinct: std::collections::BTreeSet<_> = (0..50).map(|s| permutation(s, 3)).collect();
        assert_eq!(distinct.len(), 6, "every order of three cells occurs");
    }
}
