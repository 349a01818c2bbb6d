//! The wire protocol's message types: length-prefixed binary frames over
//! TCP.
//!
//! Every message is a 4-byte big-endian length followed by that many bytes
//! of binary payload ([`crate::codec`] has the byte layout and the
//! `encode`/`decode` pairs). Frames are capped at [`MAX_FRAME_BYTES`]; an
//! oversized header is rejected *before* the body is read, so a malicious
//! length cannot make the server allocate.
//!
//! Chips are provisioned **by design spec**, not by shipping netlists:
//! the [`crate::server`] and any client rebuild bit-identical
//! [`LockedCircuit`]s from the same [`DesignSpec`] because the
//! [`Obfuscator`] is deterministic in its seed. The adversary's client
//! derives its attacker view the same way — exactly the reverse-engineered
//! layout knowledge the threat model grants it.

use ril_attacks::json::{u64_field, JsonValue};
use ril_core::{KeyBitKind, LockedCircuit, Obfuscator, RilBlockSpec};
use ril_netlist::{generators, Netlist};

/// Hard cap on one frame's payload (1 MiB).
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// A failed frame read/write.
#[derive(Debug)]
pub enum FrameError {
    /// Clean EOF at a frame boundary — the peer closed the connection.
    Closed,
    /// The connection died mid-frame (partial header or body).
    Truncated,
    /// The declared payload length exceeds [`MAX_FRAME_BYTES`].
    Oversized(usize),
    /// The payload is not a well-formed frame.
    Malformed(String),
    /// Any other I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => f.write_str("connection closed"),
            FrameError::Truncated => f.write_str("connection died mid-frame"),
            FrameError::Oversized(n) => {
                write!(
                    f,
                    "frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
                )
            }
            FrameError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Typed server-side error kinds carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request frame is not a well-formed binary frame.
    Malformed,
    /// A frame exceeded [`MAX_FRAME_BYTES`].
    Oversized,
    /// No chip with the given id is hosted.
    UnknownChip,
    /// A query's input width does not match the chip.
    BadWidth,
    /// The chip's per-chip query limit is exhausted.
    RateLimited,
    /// The server is shutting down.
    ShuttingDown,
    /// Chip provisioning or evaluation failed server-side.
    Internal,
}

impl ErrorKind {
    /// The wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Malformed => "malformed",
            ErrorKind::Oversized => "oversized",
            ErrorKind::UnknownChip => "unknown_chip",
            ErrorKind::BadWidth => "bad_width",
            ErrorKind::RateLimited => "rate_limited",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parses a wire token back.
    pub fn parse(s: &str) -> Option<ErrorKind> {
        Some(match s {
            "malformed" => ErrorKind::Malformed,
            "oversized" => ErrorKind::Oversized,
            "unknown_chip" => ErrorKind::UnknownChip,
            "bad_width" => ErrorKind::BadWidth,
            "rate_limited" => ErrorKind::RateLimited,
            "shutting_down" => ErrorKind::ShuttingDown,
            "internal" => ErrorKind::Internal,
            _ => return None,
        })
    }
}

/// A deterministic chip recipe: both sides rebuild the identical
/// [`LockedCircuit`] from it (the obfuscator is seed-deterministic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignSpec {
    /// Host circuit: a [`generators::benchmark`] name (`c7552`, `b15`,
    /// …) or `adder:N` / `multiplier:N`.
    pub benchmark: String,
    /// RIL block spec token (`2x2`, `8x8`, `8x8x8`).
    pub spec: String,
    /// Number of blocks to insert.
    pub blocks: usize,
    /// Obfuscator seed.
    pub seed: u64,
    /// Add the Scan-Enable circuitry.
    pub scan: bool,
    /// Provision with all `MTJ_SE` key bits zeroed: the scan path starts
    /// transparent and only the *morph scheduler's* SE re-rolls arm the
    /// corruption — the dynamic-defense experiment's starting state.
    pub zero_se: bool,
}

impl DesignSpec {
    /// Builds the host netlist for this spec.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown benchmark names.
    pub fn host(&self) -> Result<Netlist, String> {
        if let Some(n) = self.benchmark.strip_prefix("adder:") {
            let bits: usize = n.parse().map_err(|_| format!("bad adder width `{n}`"))?;
            return Ok(generators::adder(bits));
        }
        if let Some(n) = self.benchmark.strip_prefix("multiplier:") {
            let bits: usize = n
                .parse()
                .map_err(|_| format!("bad multiplier width `{n}`"))?;
            return Ok(generators::multiplier(bits));
        }
        generators::benchmark(&self.benchmark)
            .ok_or_else(|| format!("unknown benchmark `{}`", self.benchmark))
    }

    /// Locks the host deterministically. Both the server (to provision)
    /// and a client (to derive its attacker view) call this and get the
    /// same circuit, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns a message on a bad spec token, unknown benchmark, or
    /// obfuscation failure.
    pub fn build(&self) -> Result<LockedCircuit, String> {
        let spec = RilBlockSpec::parse(&self.spec)
            .ok_or_else(|| format!("bad spec token `{}`", self.spec))?;
        let host = self.host()?;
        let mut locked = Obfuscator::new(spec)
            .blocks(self.blocks)
            .scan_obfuscation(self.scan)
            .seed(self.seed)
            .obfuscate(&host)
            .map_err(|e| format!("obfuscation failed: {e}"))?;
        if self.zero_se {
            let se_bits: Vec<usize> = locked
                .keys
                .kinds()
                .iter()
                .enumerate()
                .filter(|(_, k)| matches!(k, KeyBitKind::ScanEnable { .. }))
                .map(|(i, _)| i)
                .collect();
            for i in se_bits {
                locked.keys.set_bit(i, false);
            }
        }
        Ok(locked)
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Lock + provision a chip from a deterministic design spec.
    Activate {
        /// The chip recipe.
        design: DesignSpec,
    },
    /// One oracle access through the scan interface.
    Query {
        /// Target chip id.
        chip: u64,
        /// Data-input pattern (SE excluded — the scan path asserts it).
        inputs: Vec<bool>,
    },
    /// Several oracle accesses in one frame.
    QueryBatch {
        /// Target chip id.
        chip: u64,
        /// Data-input patterns.
        patterns: Vec<Vec<bool>>,
    },
    /// Manual re-key of one chip.
    Morph {
        /// Target chip id.
        chip: u64,
    },
    /// Server + per-chip statistics.
    Stats,
    /// Graceful shutdown of the whole server.
    Shutdown,
}

/// Per-chip statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipStats {
    /// Chip id.
    pub chip: u64,
    /// Oracle queries served (batch patterns counted individually).
    pub queries: u64,
    /// Morphs applied (scheduled + manual).
    pub morphs: u64,
    /// Current key generation (starts at 0, +1 per morph).
    pub generation: u64,
}

/// Server-wide statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServerStats {
    /// Requests handled since start.
    pub requests: u64,
    /// Seconds since the server started.
    pub uptime_s: f64,
    /// Requests per second since the previous `stats` poll (0 on the
    /// first poll) — the "live" rate a dashboard shows without having to
    /// difference counters itself.
    pub qps: f64,
    /// One entry per hosted chip, ascending chip id.
    pub chips: Vec<ChipStats>,
    /// The server's full metrics registry: request counters, per-phase
    /// and per-chip latency histograms (`chip.<id>.query.latency`), lane
    /// occupancy counters. See DESIGN.md §15 for the naming scheme.
    pub metrics: ril_trace::MetricsSnapshot,
}

/// Renders an `f64` as a JSON number. Rust's shortest-round-trip
/// `Display` keeps the wire value bit-exact; non-finite values (which no
/// rate/uptime computation should produce) degrade to 0.
fn finite_json(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

impl ServerStats {
    /// The snapshot as a JSON object — the body of the `stats` frame.
    pub fn to_json(&self) -> String {
        let chips: Vec<String> = self
            .chips
            .iter()
            .map(|c| {
                format!(
                    r#"{{"chip":{},"queries":{},"morphs":{},"generation":{}}}"#,
                    c.chip, c.queries, c.morphs, c.generation
                )
            })
            .collect();
        format!(
            r#"{{"requests":{},"uptime_s":{},"qps":{},"chips":[{}],"metrics":{}}}"#,
            self.requests,
            finite_json(self.uptime_s),
            finite_json(self.qps),
            chips.join(","),
            self.metrics.to_json()
        )
    }

    /// Parses [`ServerStats::to_json`]'s output.
    ///
    /// # Errors
    ///
    /// Returns a message when the text is not JSON or any field is
    /// missing or mistyped.
    pub fn from_json(text: &str) -> Result<ServerStats, String> {
        let v = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let rows = v
            .get("chips")
            .and_then(JsonValue::as_array)
            .ok_or("missing `chips` array")?;
        let mut chips = Vec::with_capacity(rows.len());
        for row in rows {
            chips.push(ChipStats {
                chip: u64_field(row, "chip")?,
                queries: u64_field(row, "queries")?,
                morphs: u64_field(row, "morphs")?,
                generation: u64_field(row, "generation")?,
            });
        }
        let f64_field = |name: &str| {
            v.get(name)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("missing number field `{name}`"))
        };
        Ok(ServerStats {
            requests: u64_field(&v, "requests")?,
            uptime_s: f64_field("uptime_s")?,
            qps: f64_field("qps")?,
            chips,
            metrics: v
                .get("metrics")
                .and_then(ril_attacks::json::metrics_snapshot)
                .ok_or("missing or malformed `metrics` object")?,
        })
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A chip was provisioned.
    Activated {
        /// The new chip's id.
        chip: u64,
        /// Its key generation (0 at activation).
        generation: u64,
        /// Data-input width per query.
        inputs: usize,
        /// Output width per response.
        outputs: usize,
        /// Key bits burned into the chip.
        key_bits: usize,
    },
    /// One query's response.
    Outputs {
        /// Output bits.
        bits: Vec<bool>,
        /// Key generation the response was produced under.
        generation: u64,
    },
    /// A batch's responses. The whole block is answered atomically: a
    /// scheduled morph never lands mid-batch, so `generation` is the one
    /// key generation *every* row was produced under.
    Batch {
        /// One output row per request pattern.
        rows: Vec<Vec<bool>>,
        /// Key generation the batch was produced under.
        generation: u64,
    },
    /// A morph was applied.
    Morphed {
        /// The chip's new generation.
        generation: u64,
        /// Key-bit *transitions* across the morph's moves (a bit toggled
        /// twice counts twice) — [`ril_core::MorphReport::bits_changed`].
        bits_changed: u64,
        /// Indices of key bits whose *value* differs from the previous
        /// generation (the net [`ril_core::MorphDelta`]), sorted
        /// ascending. Combined with the netlist's key analysis this names
        /// exactly the output cones whose logic changed, so a client can
        /// re-verify or re-encode only those.
        changed_bits: Vec<usize>,
    },
    /// Statistics snapshot.
    Stats(ServerStats),
    /// Shutdown acknowledged.
    Bye,
    /// A typed error.
    Error {
        /// Error category.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_design() -> DesignSpec {
        DesignSpec {
            benchmark: "adder:6".to_string(),
            spec: "2x2".to_string(),
            blocks: 2,
            seed: 7,
            scan: true,
            zero_se: true,
        }
    }

    #[test]
    fn stats_json_round_trips_and_rejects_partial_bodies() {
        let m = ril_trace::Metrics::new();
        m.counter_add("serve.queries", 40);
        m.record_timing("chip.1.query.latency", std::time::Duration::from_micros(12));
        let stats = ServerStats {
            requests: 42,
            uptime_s: 1.5,
            qps: 0.0625,
            chips: vec![ChipStats {
                chip: 1,
                queries: 40,
                morphs: 3,
                generation: 3,
            }],
            metrics: m.snapshot(),
        };
        assert_eq!(ServerStats::from_json(&stats.to_json()).unwrap(), stats);
        for text in [
            "",
            "[1,2]",
            r#"{"requests":42,"chips":[]}"#,
            r#"{"requests":42,"uptime_s":1,"qps":0,"chips":[]}"#,
        ] {
            assert!(ServerStats::from_json(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn design_spec_builds_deterministically_and_zeroes_se() {
        let design = sample_design();
        let a = design.build().unwrap();
        let b = design.build().unwrap();
        assert_eq!(a.keys.bits(), b.keys.bits());
        assert_eq!(
            ril_netlist::write_bench(&a.netlist),
            ril_netlist::write_bench(&b.netlist)
        );
        // zero_se left every ScanEnable bit cleared but the chip valid.
        assert!(a
            .keys
            .kinds()
            .iter()
            .zip(a.keys.bits())
            .all(|(k, &v)| !matches!(k, KeyBitKind::ScanEnable { .. }) || !v));
        assert!(a.verify(8).unwrap());
    }
}
