//! The morph scheduler: the paper's dynamic defense made operational.
//!
//! A chip re-keys itself every K oracle queries (checked inline in the
//! query path) or every T milliseconds (this module's background thread).
//! Each morph runs [`ril_core::morph_all`] — functionality under the
//! correct key is preserved, but the key itself, and with Scan-Enable
//! circuitry the *scan-response corruption pattern*, changes — so DIPs an
//! attacker accumulated against an earlier generation stop describing the
//! chip it is now talking to.
//!
//! ## Batch semantics
//!
//! Both triggers synchronize on the chip's **shard** mutex, which the
//! query path holds for the duration of a whole request — including a
//! lane-packed `query_batch`. A re-key therefore never lands *mid-block*:
//! every pattern in a batch is answered under one generation, the one
//! stamped on the `Response::Batch`. Query-count triggers charge each
//! individual pattern against the budget (`since_morph` advances by the
//! batch's lane count) and fire only after the full batch is answered, so
//! a 64-lane block can overshoot the threshold by at most 63 queries —
//! the price of the atomic-block guarantee.

use crate::server::{HostedChip, State};
use ril_core::morph_all_delta;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Applies one morph to a hosted chip: re-keys the locked circuit,
/// re-burns the oracle, bumps the generation, and resets both triggers.
/// The wall time lands in `metrics` as `serve.phase.morph`, whichever
/// trigger (inline query count or background timer) fired it, and the
/// net count of key bits whose value changed as `serve.key_bits_morphed`.
/// Nothing about the new key leaves the server: a client sees only the
/// generation stamped on its next response.
pub(crate) fn do_morph(metrics: &ril_trace::Metrics, chip: &mut HostedChip) {
    let t0 = Instant::now();
    let (_, delta) = morph_all_delta(&mut chip.locked, &mut chip.rng);
    chip.oracle.rekey(&chip.locked);
    chip.generation += 1;
    chip.morphs += 1;
    chip.since_morph = 0;
    chip.last_morph = Instant::now();
    metrics.record_timing("serve.phase.morph", t0.elapsed());
    metrics.counter_add("serve.morphs", 1);
    metrics.counter_add("serve.key_bits_morphed", delta.len() as u64);
    ril_trace::counter("serve.morphs", 1);
    ril_trace::counter("serve.key_bits_morphed", delta.len() as u64);
}

/// Spawns the time-based trigger: every tick, morph any chip whose key
/// has been stable for the configured interval. The tick is a quarter of
/// the interval (capped at 50 ms) so the jitter stays small relative to T.
pub(crate) fn spawn_scheduler(state: Arc<State>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let interval = state
            .cfg
            .morph_interval
            .expect("scheduler spawned without an interval");
        let tick = (interval / 4)
            .min(Duration::from_millis(50))
            .max(Duration::from_millis(1));
        let _guard = state.install_trace();
        while !state.shutting_down() {
            std::thread::sleep(tick);
            // One shard at a time: a due chip blocks only its own stripe
            // while it re-keys; traffic to other shards keeps flowing.
            for shard in &state.shards {
                let mut chips = shard.lock().expect("chip shard");
                for chip in chips.values_mut() {
                    if chip.last_morph.elapsed() >= interval {
                        do_morph(state.metrics(), chip);
                    }
                }
            }
        }
    })
}
