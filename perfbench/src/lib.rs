//! The repository benchmark: four workloads that cross the attack, serve
//! and farm stacks, each timed end to end and, in a separate traced pass,
//! split by layer. See `README.md` beside this crate for how to run it.
//!
//! A run repeats *passes* of one workload until its time budget is spent.
//! Every pass sets up afresh (locking, server start, chip activation or
//! coordinator start), runs a fixed amount of work in its timed section,
//! and checks the outputs. The end-to-end metrics are medians over the
//! untraced passes; the per-layer metrics come from the traced ones.

use std::collections::BTreeMap;
use std::time::Duration;

pub mod attack;
pub mod farm;
pub mod oracle;
pub mod report;
pub mod run;
pub mod serve;
pub mod stats;
pub mod trace;

use trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process SAT attack on three converging Table I cells.
    AttackLocal,
    /// SAT attack over loopback against a chip that morphs every 2 queries.
    AttackRemoteMorph,
    /// Closed-loop single and batch oracle traffic against four chips.
    OracleServe,
    /// A farmed sweep of small SAT cells over an in-process worker.
    SweepFarm,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::AttackLocal,
        Workload::AttackRemoteMorph,
        Workload::OracleServe,
        Workload::SweepFarm,
    ];

    /// The workload's name on the command line and in results.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::AttackLocal => "attack_local",
            Workload::AttackRemoteMorph => "attack_remote_morph",
            Workload::OracleServe => "oracle_serve",
            Workload::SweepFarm => "sweep_farm",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input size: `Full` is what the command measures; `Tiny` is a
/// seconds-long version of the same code paths for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured sizes.
    Full,
    /// Small hosts and few requests.
    Tiny,
}

/// The default seeds: with a lock seed of 1000 the attack workloads lock
/// the Table I cells and the `dynamic_defense` chip exactly as the
/// experiments do (obfuscator seeds 1001 and 1002).
pub const DEFAULT_SEED: u64 = 1000;

/// Where a workload's inputs come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inputs {
    /// The workload seed: request patterns, chip locks, the order of the
    /// attack and farm cells.
    pub seed: u64,
    /// The base obfuscator seed of the attacked instances and the farm's
    /// cells. It is kept
    /// apart from `seed` because the cost of one SAT attack swings
    /// several-fold between lock seeds (4.3 to 15.8 s for the three
    /// `attack_local` cells over seven seeds), more than any bound could
    /// absorb; a held-out lock seed re-checks a claim on a new instance.
    pub lock_seed: u64,
    /// Input size.
    pub size: Size,
}

/// What one pass measured and checked.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Set-up time before the timed section.
    pub setup: Duration,
    /// Wall time of the timed section.
    pub wall: Duration,
    /// Blocking paths that ran side by side in the timed section (client
    /// connections, farm workers); the layer attribution compares the
    /// summed self times with `paths × wall`.
    pub paths: usize,
    /// Oracle patterns answered in the timed section.
    pub patterns: u64,
    /// Latency of each of the workload's blocking requests, microseconds.
    pub latencies_us: Vec<f64>,
    /// Operations attempted (cells, attacks, requests).
    pub attempted: u64,
    /// Failed operations and failed checks.
    pub failed: u64,
    /// What failed (one message per failure, or a summary line).
    pub failures: Vec<String>,
    /// Per-layer metrics of this pass, by name.
    pub layer: BTreeMap<&'static str, f64>,
}

impl PassOut {
    /// Records a failed operation or check.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failed += 1;
        self.failures.push(message.into());
    }

    /// Adds `v` to a per-layer metric.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.layer.entry(name).or_insert(0.0) += v;
    }
}

/// A prepared workload: inputs generated, expected outputs computed.
pub trait Bench {
    /// Runs one pass: set-up, the timed section, the output checks.
    fn pass(&mut self, tracer: Option<&Tracer>) -> PassOut;
}

/// Builds a workload's inputs.
///
/// # Errors
///
/// Returns a message when an input cannot be built (unknown host, a
/// lock that does not fit).
pub fn prepare(workload: Workload, inputs: Inputs) -> Result<Box<dyn Bench>, String> {
    Ok(match workload {
        Workload::AttackLocal => Box::new(attack::Local::new(inputs)?),
        Workload::AttackRemoteMorph => Box::new(attack::RemoteMorph::new(inputs)),
        Workload::OracleServe => Box::new(serve::OracleServe::new(inputs)?),
        Workload::SweepFarm => Box::new(farm::SweepFarm::new(inputs)),
    })
}

/// SplitMix64: the benchmark's one pseudo-random source, so inputs depend
/// only on the seed and the index they are drawn for.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Where runs leave their result records, span files and the farm's
/// scratch cell caches: `out/` beside this crate.
#[must_use]
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
