//! Post-morph verification cost: incremental dirty-cone re-checking vs a
//! full miter rebuild, on a c7552 morph sweep.
//!
//! The dynamic defense re-keys the chip repeatedly; after every morph the
//! defender (and any formal harness) must re-establish that the chip
//! still computes the host function under the new key. The naive way
//! rebuilds the whole original-vs-locked miter and re-proves every output
//! per generation: `verify_formal`, a fresh [`ril_sat::EquivSession`]
//! whose one full check encodes every cone. The incremental way keeps one
//! live [`ril_core::MorphVerifier`] (the same engine) and, per generation,
//! re-checks only the outputs whose cones read a key bit named by that
//! morph's [`ril_core::MorphDelta`] — sound because a morph changes key
//! *values* only, so untouched cones still compute their certified
//! function.
//!
//! Both paths must return the identical verdict on every generation (and
//! on a deliberately corrupted key), and the incremental path must be at
//! least 5× (`MIN_SPEEDUP`) faster across the sweep — both are hard
//! assertions, not tendencies. Cells are timed live and never cached:
//! a wall-clock ratio read back from another machine's cache would be
//! meaningless.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ril_core::{morph_all_delta, MorphDelta, Obfuscator, RilBlockSpec};
use ril_netlist::generators;
use ril_sat::EquivResult;
use std::time::Instant;

use crate::experiment::{Experiment, ExperimentError, ExperimentOutput, RunContext};
use crate::{print_table, RunConfig};

/// Incremental vs full-rebuild post-morph verification on c7552.
pub struct IncrementalVerify;

/// The sweep's acceptance floor: summed across all generations, the
/// incremental path must beat the full-rebuild path by at least this
/// factor.
const MIN_SPEEDUP: f64 = 5.0;

/// Obfuscator seed (also salts the morph RNG) — fixed so the sweep is
/// bit-for-bit reproducible.
const SEED: u64 = 2024;

fn verdict_name(r: &EquivResult) -> &'static str {
    match r {
        EquivResult::Equivalent => "equivalent",
        EquivResult::Inequivalent { .. } => "inequivalent",
        EquivResult::Unknown => "unknown",
    }
}

fn same_verdict(a: &EquivResult, b: &EquivResult) -> bool {
    verdict_name(a) == verdict_name(b)
}

impl Experiment for IncrementalVerify {
    fn name(&self) -> &'static str {
        "incremental_verify"
    }

    fn describe(&self) -> &'static str {
        "post-morph incremental cone re-verification vs full miter rebuild (c7552)"
    }

    fn run(&self, cfg: &RunConfig, ctx: &RunContext) -> Result<ExperimentOutput, ExperimentError> {
        let generations = if cfg.smoke { 3 } else { 8 };
        let host = generators::benchmark("c7552").ok_or("c7552 generator missing")?;
        let mut locked = Obfuscator::new(RilBlockSpec::size_2x2())
            .blocks(4)
            .seed(SEED)
            .obfuscate(&host)?;
        let timeout = Some(cfg.timeout);
        ctx.note(&format!(
            "incremental_verify — c7552, 4 × 2x2 blocks, {} key bits, {generations} generations",
            locked.key_width(),
        ));

        // One live incremental verifier for the whole sweep. Its one-time
        // construction + first full certification is the amortized setup
        // cost, reported separately from the per-morph numbers.
        let setup_started = Instant::now();
        let mut verifier = locked
            .incremental_verifier(timeout)
            .map_err(|e| format!("incremental verifier build failed: {e}"))?;
        let key0: Vec<bool> = locked.keys.bits().to_vec();
        let baseline = verifier
            .verify(&key0)
            .map_err(|e| format!("baseline verify failed: {e}"))?;
        let setup_s = setup_started.elapsed().as_secs_f64();
        if baseline != EquivResult::Equivalent {
            return Err(format!("generation 0 is not equivalent: {baseline:?}").into());
        }

        let mut rng = StdRng::seed_from_u64(SEED ^ 0x006d_6f72_7068);
        let outputs = verifier.outputs();
        let mut rows = Vec::new();
        let mut json_rows = Vec::new();
        let (mut inc_total_s, mut full_total_s) = (0.0f64, 0.0f64);
        for generation in 1..=generations {
            let (_report, delta) = morph_all_delta(&mut locked, &mut rng);
            let key: Vec<bool> = locked.keys.bits().to_vec();
            let dirty = locked
                .netlist
                .key_analysis()
                .dirty_outputs(delta.changed_bits())
                .len();

            let started = Instant::now();
            let inc = verifier
                .verify_after(&delta, &key)
                .map_err(|e| format!("gen {generation}: incremental verify failed: {e}"))?;
            let inc_s = started.elapsed().as_secs_f64();

            let started = Instant::now();
            let full = locked
                .verify_formal(&key, timeout)
                .map_err(|e| format!("gen {generation}: full verify failed: {e}"))?;
            let full_s = started.elapsed().as_secs_f64();

            if !same_verdict(&inc, &full) {
                return Err(format!(
                    "gen {generation}: verdicts diverge — incremental {inc:?} vs full {full:?}"
                )
                .into());
            }
            if inc != EquivResult::Equivalent {
                return Err(format!("gen {generation}: morph broke equivalence: {inc:?}").into());
            }
            inc_total_s += inc_s;
            full_total_s += full_s;
            rows.push(vec![
                generation.to_string(),
                delta.len().to_string(),
                format!("{dirty}/{outputs}"),
                format!("{:.1}", inc_s * 1e3),
                format!("{:.1}", full_s * 1e3),
            ]);
            json_rows.push(format!(
                r#"{{"generation":{generation},"changed_bits":{},"dirty_outputs":{dirty},"outputs":{outputs},"incremental_ms":{:.3},"full_ms":{:.3},"verdict":"{}"}}"#,
                delta.len(),
                inc_s * 1e3,
                full_s * 1e3,
                verdict_name(&inc),
            ));
        }

        // A corrupted key must be caught by both paths identically. Some
        // single bits are key-redundant (flipping them yields another
        // correct key — the `key_redundancy` experiment quantifies this),
        // so probe bits with the cheap incremental check until one breaks
        // equivalence, then confirm the expensive path agrees on it.
        let good_key: Vec<bool> = locked.keys.bits().to_vec();
        let mut caught = None;
        for bit in 0..good_key.len() {
            let mut bad_key = good_key.clone();
            bad_key[bit] = !bad_key[bit];
            let bad_delta = MorphDelta::between(&good_key, &bad_key);
            let inc_bad = verifier
                .verify_after(&bad_delta, &bad_key)
                .map_err(|e| format!("bad-key incremental verify failed: {e}"))?;
            if verdict_name(&inc_bad) == "inequivalent" {
                caught = Some((bad_key, inc_bad));
                break;
            }
        }
        let Some((bad_key, inc_bad)) = caught else {
            return Err("every single-bit key corruption went undetected".into());
        };
        let full_bad = locked
            .verify_formal(&bad_key, timeout)
            .map_err(|e| format!("bad-key full verify failed: {e}"))?;
        if !same_verdict(&inc_bad, &full_bad) {
            return Err(format!(
                "bad-key verdicts diverge — incremental {inc_bad:?} vs full {full_bad:?}"
            )
            .into());
        }

        let speedup = full_total_s / inc_total_s.max(1e-9);
        print_table(
            "Post-morph re-verification (c7552, 4 × 2x2)",
            &[
                "Generation",
                "Δ key bits",
                "Dirty outputs",
                "Incremental (ms)",
                "Full rebuild (ms)",
            ],
            &rows,
        );
        let artifact = ctx.write_output(
            "INCREMENTAL_VERIFY.json",
            &format!(
                r#"{{"benchmark":"c7552","spec":"2x2","blocks":4,"seed":{SEED},"generations":{generations},"outputs":{outputs},"setup_s":{setup_s:.3},"incremental_total_s":{inc_total_s:.3},"full_total_s":{full_total_s:.3},"speedup":{speedup:.2},"min_speedup":{MIN_SPEEDUP},"encoded_outputs":{},"checks":{},"rows":[{}]}}"#,
                verifier.encoded_outputs(),
                verifier.checks(),
                json_rows.join(",")
            ),
        )?;

        // The acceptance assertion: identical verdicts were enforced
        // above; the speedup floor is enforced here.
        if speedup < MIN_SPEEDUP {
            return Err(format!(
                "incremental verification only {speedup:.2}x faster than full rebuild \
                 ({inc_total_s:.3}s vs {full_total_s:.3}s over {generations} generations); \
                 the floor is {MIN_SPEEDUP}x"
            )
            .into());
        }
        Ok(ExperimentOutput {
            summary: format!(
                "{generations} generations; {speedup:.1}x speedup \
                 ({:.1}ms incremental vs {:.1}ms full per morph); verdicts identical",
                inc_total_s * 1e3 / generations as f64,
                full_total_s * 1e3 / generations as f64,
            ),
            files: vec![artifact],
        })
    }
}
