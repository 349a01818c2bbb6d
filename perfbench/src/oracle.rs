//! A timing wrapper around any [`OracleSource`]: the benchmark's view of
//! the oracle layer, measured from outside.

use std::time::{Duration, Instant};

use ril_attacks::{OracleError, OracleSource, PatternBlock, ResponseBlock};

use crate::trace::{span, Tracer};

/// Counts and times every oracle access an attack makes through it.
pub struct TimedOracle<'a> {
    inner: &'a mut dyn OracleSource,
    tracer: Option<&'a Tracer>,
    layer: &'static str,
    /// Flip one response bit of this (0-based) call: a lying oracle, to
    /// show the benchmark's checks catch a wrong answer.
    lie_at: Option<u64>,
    /// Accesses made (single queries and batches alike).
    pub calls: u64,
    /// Patterns answered across those accesses.
    pub lanes: u64,
    /// Time spent inside the wrapped oracle.
    pub busy: Duration,
    /// Per-access wall time, microseconds.
    pub rtt_us: Vec<f64>,
}

impl<'a> TimedOracle<'a> {
    /// Wraps `inner`; each access opens a span in `layer`.
    pub fn new(
        inner: &'a mut dyn OracleSource,
        tracer: Option<&'a Tracer>,
        layer: &'static str,
        lie_at: Option<u64>,
    ) -> TimedOracle<'a> {
        TimedOracle {
            inner,
            tracer,
            layer,
            lie_at,
            calls: 0,
            lanes: 0,
            busy: Duration::ZERO,
            rtt_us: Vec::new(),
        }
    }

    fn account(&mut self, t0: Instant, lanes: usize) -> bool {
        let wall = t0.elapsed();
        self.busy += wall;
        self.rtt_us.push(wall.as_secs_f64() * 1e6);
        self.lanes += lanes as u64;
        let lie = self.lie_at == Some(self.calls);
        self.calls += 1;
        lie
    }
}

impl OracleSource for TimedOracle<'_> {
    fn input_width(&self) -> usize {
        self.inner.input_width()
    }

    fn output_width(&self) -> usize {
        self.inner.output_width()
    }

    fn try_query(&mut self, inputs: &[bool]) -> Result<Vec<bool>, OracleError> {
        let t0 = Instant::now();
        let mut out = {
            let _s = span(self.tracer, "oracle.query", self.layer);
            self.inner.try_query(inputs)?
        };
        if self.account(t0, 1) {
            out[0] = !out[0];
        }
        Ok(out)
    }

    fn try_query_batch(&mut self, block: &PatternBlock) -> Result<ResponseBlock, OracleError> {
        let t0 = Instant::now();
        let out = {
            let _s = span(self.tracer, "oracle.batch", self.layer);
            self.inner.try_query_batch(block)?
        };
        if self.account(t0, block.lanes()) {
            let mut words = out.words().to_vec();
            words[0] ^= 1;
            return Ok(ResponseBlock::from_words(words, out.lanes()));
        }
        Ok(out)
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }

    fn generation(&self) -> Option<u64> {
        self.inner.generation()
    }
}
