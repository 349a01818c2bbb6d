//! Oracle sim throughput: lane-packed batch evaluation vs the classic
//! one-pattern-at-a-time loop, on a c7552 chip's compiled netlist.
//!
//! The batched oracle pipeline answers up to 64 patterns with **one**
//! bitslice pass over the compiled netlist
//! ([`ril_netlist::CompiledSim::eval_words_into`] over a
//! [`PatternBlock`]'s words), where the single-query path — what every
//! attack loop did before the batch refactor — burns a full pass per
//! pattern: 64 lanes computed, 63 thrown away. This experiment times
//! both paths doing identical work (same patterns, same chip, same
//! correct key), asserts the responses are bit-identical, and
//! **hard-asserts** the 10× (`MIN_SPEEDUP`) floor. Cells are timed live and
//! never cached: a wall-clock ratio read back from another machine's
//! cache would be meaningless.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ril_attacks::{PatternBlock, ResponseBlock, MAX_LANES};
use ril_core::{Obfuscator, RilBlockSpec};
use ril_netlist::{generators, CompiledSim};
use std::time::Instant;

use crate::experiment::{Experiment, ExperimentError, ExperimentOutput, RunContext};
use crate::{print_table, RunConfig};

/// Batched vs single-pattern oracle sim throughput on c7552.
pub struct OracleThroughput;

/// The acceptance floor: answering the pattern set through 64-lane blocks
/// must beat the one-at-a-time loop by at least this factor. The ideal
/// ratio is 64 (one netlist pass amortized over 64 lanes); 10 leaves
/// headroom for lane packing, response extraction, and machine noise.
const MIN_SPEEDUP: f64 = 10.0;

/// Obfuscator + pattern seed — fixed so the run is reproducible.
const SEED: u64 = 7201;

impl Experiment for OracleThroughput {
    fn name(&self) -> &'static str {
        "oracle_throughput"
    }

    fn describe(&self) -> &'static str {
        "lane-packed 64-pattern oracle batches vs one-at-a-time sim passes (c7552)"
    }

    fn run(&self, cfg: &RunConfig, ctx: &RunContext) -> Result<ExperimentOutput, ExperimentError> {
        let patterns = if cfg.smoke { 1024 } else { 4096 };
        let host = generators::benchmark("c7552").ok_or("c7552 generator missing")?;
        let locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(4)
            .seed(SEED)
            .obfuscate(&host)?;
        let mut sim =
            CompiledSim::new(&locked.netlist).map_err(|e| format!("sim compile failed: {e}"))?;
        let width = sim.data_width();
        let keys: Vec<u64> = locked
            .keys
            .bits()
            .iter()
            .map(|&b| if b { u64::MAX } else { 0 })
            .collect();
        ctx.note(&format!(
            "oracle_throughput — c7552, 4 × 2x2 blocks, {width} inputs, {patterns} patterns",
        ));

        let mut rng = StdRng::seed_from_u64(SEED ^ 0x6f72_6163);
        let rows: Vec<Vec<bool>> = (0..patterns)
            .map(|_| (0..width).map(|_| rng.gen()).collect())
            .collect();

        // Single-pattern reference: exactly the pre-batch oracle hot loop —
        // broadcast each pattern to all 64 lanes, run one full compiled
        // pass, keep lane 0 of every output.
        let mut data = vec![0u64; width];
        let mut out: Vec<u64> = Vec::new();
        let started = Instant::now();
        let expected: Vec<Vec<bool>> = rows
            .iter()
            .map(|row| {
                for (w, &b) in data.iter_mut().zip(row) {
                    *w = if b { u64::MAX } else { 0 };
                }
                sim.eval_words_into(&data, &keys, &mut out);
                out.iter().map(|&w| w & 1 == 1).collect()
            })
            .collect();
        let seq_s = started.elapsed().as_secs_f64();

        // Batched: the same patterns, 64 lanes per compiled pass —
        // including the lane-packing cost, which is part of the pipeline.
        let started = Instant::now();
        let mut batched: Vec<ResponseBlock> = Vec::with_capacity(rows.len().div_ceil(MAX_LANES));
        for chunk in rows.chunks(MAX_LANES) {
            let block = PatternBlock::pack(chunk);
            sim.eval_words_into(block.words(), &keys, &mut out);
            batched.push(ResponseBlock::from_words(out.clone(), block.lanes()));
        }
        let bat_s = started.elapsed().as_secs_f64();

        // Correctness gate before any performance claim: every block must
        // be bit-identical to the single-pattern responses.
        for (block, chunk) in batched.iter().zip(expected.chunks(MAX_LANES)) {
            if block.diff_bits(&ResponseBlock::pack(chunk)) != 0 {
                return Err("batched responses diverge from single-pattern responses".into());
            }
        }

        let speedup = seq_s / bat_s.max(1e-9);
        let blocks = batched.len();
        print_table(
            "Oracle sim throughput (c7552, 4 × 2x2)",
            &[
                "Path",
                "Patterns",
                "Netlist passes",
                "Wall (ms)",
                "µs/pattern",
            ],
            &[
                vec![
                    "single-pattern".to_string(),
                    patterns.to_string(),
                    patterns.to_string(),
                    format!("{:.1}", seq_s * 1e3),
                    format!("{:.2}", seq_s * 1e6 / patterns as f64),
                ],
                vec![
                    "batched (64-lane)".to_string(),
                    patterns.to_string(),
                    blocks.to_string(),
                    format!("{:.1}", bat_s * 1e3),
                    format!("{:.2}", bat_s * 1e6 / patterns as f64),
                ],
            ],
        );
        let artifact = ctx.write_output(
            "BENCH_oracle_throughput.json",
            &format!(
                r#"{{"benchmark":"c7552","spec":"2x2","blocks":4,"seed":{SEED},"patterns":{patterns},"lanes":{MAX_LANES},"blocks_sent":{blocks},"single_s":{seq_s:.6},"batched_s":{bat_s:.6},"single_us_per_pattern":{:.3},"batched_us_per_pattern":{:.3},"speedup":{speedup:.2},"min_speedup":{MIN_SPEEDUP}}}"#,
                seq_s * 1e6 / patterns as f64,
                bat_s * 1e6 / patterns as f64,
            ),
        )?;

        // The acceptance assertion: identical responses were enforced
        // above; the throughput floor is enforced here.
        if speedup < MIN_SPEEDUP {
            return Err(format!(
                "batched oracle only {speedup:.2}x faster than single-pattern \
                 ({bat_s:.3}s vs {seq_s:.3}s over {patterns} patterns); \
                 the floor is {MIN_SPEEDUP}x"
            )
            .into());
        }
        Ok(ExperimentOutput {
            summary: format!(
                "{patterns} patterns; {speedup:.1}x speedup \
                 ({:.2}µs batched vs {:.2}µs single per pattern); responses identical",
                bat_s * 1e6 / patterns as f64,
                seq_s * 1e6 / patterns as f64,
            ),
            files: vec![artifact],
        })
    }
}
