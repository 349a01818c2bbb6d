//! The experiment-farm wire protocol: cell leases over the serve framing.
//!
//! A sweep coordinator owns the list of outstanding cells (identified by
//! their content-addressed cache keys) and hands out **leases** to
//! workers; a worker executes each leased cell and sends the finished
//! payload back, which the coordinator persists into the shared cell
//! cache. The messages here are the second real workload for the wire
//! layer built in DESIGN.md §14–§16: the same 4-byte length-prefixed
//! frames ([`crate::codec::read_frame_bytes`] /
//! [`crate::codec::write_frame_bytes`]), the same binary header (magic
//! [`crate::codec::BIN_MAGIC`], then the version byte), and a disjoint
//! opcode range (requests `0x20`–`0x24`, responses `0xA0`–`0xA4`) so a
//! farm frame can never be mistaken for an oracle frame.
//!
//! The lease state machine and crash-recovery invariants live in
//! DESIGN.md §17; this module is only the vocabulary:
//!
//! | request | response |
//! |---|---|
//! | [`FarmRequest::Join`] | [`FarmResponse::Welcome`] (lease duration) |
//! | [`FarmRequest::Lease`] | [`FarmResponse::Leases`] (grants, or `done`) |
//! | [`FarmRequest::Complete`] | [`FarmResponse::Accepted`] (dedup verdict) |
//! | [`FarmRequest::Fail`] | [`FarmResponse::Accepted`] |
//! | [`FarmRequest::Heartbeat`] | [`FarmResponse::Heartbeats`] (renewed/lost) |
//!
//! The decoders are total: they reject trailing garbage, hostile length
//! fields and foreign magic or version bytes with typed errors, exactly
//! like the oracle decoders.

use crate::codec::{bin_header, header, put_str, put_u32, put_u64, sized};
use crate::protocol::FrameError;

/// The farm protocol version carried in the `join` exchange. Bump when
/// lease semantics or the binary layout change incompatibly; the
/// coordinator answers `min(worker_version, FARM_PROTOCOL_VERSION)`.
pub const FARM_PROTOCOL_VERSION: u32 = 1;

// Farm request opcodes (disjoint from the oracle's 0x01–0x07 range).
const OP_JOIN: u8 = 0x20;
const OP_LEASE: u8 = 0x21;
const OP_COMPLETE: u8 = 0x22;
const OP_FAIL: u8 = 0x23;
const OP_HEARTBEAT: u8 = 0x24;

// Farm response opcodes (high bit set, disjoint from 0x81–0x88).
const RE_WELCOME: u8 = 0xA0;
const RE_LEASES: u8 = 0xA1;
const RE_ACCEPTED: u8 = 0xA2;
const RE_HEARTBEATS: u8 = 0xA3;
const RE_FARM_ERROR: u8 = 0xA4;

/// One granted lease: the right to compute one cell until the deadline.
///
/// The cell's canonical cache-key string **is** the work description —
/// it encodes the full attack configuration (benchmark, spec, blocks,
/// seed, timeout, solver width), so a worker needs no side channel to
/// know what to run, and the artifact it produces is content-addressed
/// by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseGrant {
    /// Coordinator-unique lease id; quoted back on completion/heartbeat.
    pub lease_id: u64,
    /// The cell's canonical cache-key string.
    pub key: String,
}

/// A worker-to-coordinator message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FarmRequest {
    /// First message on a connection: announce the worker.
    Join {
        /// Worker name (unique per farm; used in telemetry keys).
        worker: String,
        /// The worker's [`FARM_PROTOCOL_VERSION`].
        version: u32,
    },
    /// Ask for up to `max` leases.
    Lease {
        /// Worker name.
        worker: String,
        /// Maximum number of grants wanted.
        max: u32,
    },
    /// Deliver a finished cell payload.
    Complete {
        /// Worker name.
        worker: String,
        /// The lease being fulfilled (may already be expired — the
        /// coordinator still accepts the result if the cell is open).
        lease_id: u64,
        /// Canonical cache-key string, echoed for validation.
        key: String,
        /// The cell payload to persist, verbatim.
        payload: String,
        /// Worker-measured execution wall time, microseconds.
        wall_us: u64,
    },
    /// Report a cell the worker cannot compute (unparseable key,
    /// oversized payload, …). The coordinator retires the cell so the
    /// farm still terminates; the post-farm in-process run recomputes it
    /// locally.
    Fail {
        /// Worker name.
        worker: String,
        /// The lease being abandoned.
        lease_id: u64,
        /// Canonical cache-key string, echoed for validation.
        key: String,
        /// Why the cell could not be computed.
        message: String,
    },
    /// Renew the deadlines of the listed leases.
    Heartbeat {
        /// Worker name.
        worker: String,
        /// Currently-held lease ids.
        lease_ids: Vec<u64>,
    },
}

/// A coordinator-to-worker message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FarmResponse {
    /// Answer to [`FarmRequest::Join`].
    Welcome {
        /// `min(worker, coordinator)` protocol version.
        version: u32,
        /// Lease duration in milliseconds; workers should heartbeat at
        /// roughly a third of this.
        lease_ms: u64,
    },
    /// Answer to [`FarmRequest::Lease`].
    Leases {
        /// Granted leases (possibly empty while peers hold the tail).
        leases: Vec<LeaseGrant>,
        /// `true` once every cell is settled — the worker should exit.
        done: bool,
    },
    /// Answer to [`FarmRequest::Complete`] / [`FarmRequest::Fail`].
    Accepted {
        /// The lease id quoted in the request.
        lease_id: u64,
        /// The cell was already settled — the payload was dropped
        /// (first write wins).
        duplicate: bool,
        /// The result landed after the lease expired but still won the
        /// cell (crash-recovery path).
        stolen: bool,
    },
    /// Answer to [`FarmRequest::Heartbeat`].
    Heartbeats {
        /// Leases whose deadlines were extended.
        renewed: Vec<u64>,
        /// Leases no longer held (expired and re-issued, or settled).
        lost: Vec<u64>,
    },
    /// A request the coordinator could not serve.
    FarmError {
        /// What went wrong.
        message: String,
    },
}

impl FarmRequest {
    /// Encodes this request as a frame payload.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] when the encoding exceeds the frame cap.
    pub fn encode(&self) -> Result<Vec<u8>, FrameError> {
        let out = match self {
            FarmRequest::Join { worker, version } => {
                let mut out = header(OP_JOIN);
                put_str(&mut out, worker);
                put_u32(&mut out, *version);
                out
            }
            FarmRequest::Lease { worker, max } => {
                let mut out = header(OP_LEASE);
                put_str(&mut out, worker);
                put_u32(&mut out, *max);
                out
            }
            FarmRequest::Complete {
                worker,
                lease_id,
                key,
                payload,
                wall_us,
            } => {
                let mut out = header(OP_COMPLETE);
                put_str(&mut out, worker);
                put_u64(&mut out, *lease_id);
                put_str(&mut out, key);
                put_str(&mut out, payload);
                put_u64(&mut out, *wall_us);
                out
            }
            FarmRequest::Fail {
                worker,
                lease_id,
                key,
                message,
            } => {
                let mut out = header(OP_FAIL);
                put_str(&mut out, worker);
                put_u64(&mut out, *lease_id);
                put_str(&mut out, key);
                put_str(&mut out, message);
                out
            }
            FarmRequest::Heartbeat { worker, lease_ids } => {
                let mut out = header(OP_HEARTBEAT);
                put_str(&mut out, worker);
                put_u32(&mut out, lease_ids.len() as u32);
                for &id in lease_ids {
                    put_u64(&mut out, id);
                }
                out
            }
        };
        sized(out)
    }

    /// Decodes a frame payload into a farm request.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] for anything that is not a well-formed
    /// farm request frame. Never panics, whatever the bytes.
    pub fn decode(payload: &[u8]) -> Result<FarmRequest, FrameError> {
        let (opcode, mut cur) = bin_header(payload)?;
        let req = match opcode {
            OP_JOIN => FarmRequest::Join {
                worker: cur.str_("join.worker")?,
                version: cur.u32("join.version")?,
            },
            OP_LEASE => FarmRequest::Lease {
                worker: cur.str_("lease.worker")?,
                max: cur.u32("lease.max")?,
            },
            OP_COMPLETE => FarmRequest::Complete {
                worker: cur.str_("complete.worker")?,
                lease_id: cur.u64("complete.lease_id")?,
                key: cur.str_("complete.key")?,
                payload: cur.str_("complete.payload")?,
                wall_us: cur.u64("complete.wall_us")?,
            },
            OP_FAIL => FarmRequest::Fail {
                worker: cur.str_("fail.worker")?,
                lease_id: cur.u64("fail.lease_id")?,
                key: cur.str_("fail.key")?,
                message: cur.str_("fail.message")?,
            },
            OP_HEARTBEAT => {
                let worker = cur.str_("heartbeat.worker")?;
                let n = cur.u32("heartbeat.count")? as usize;
                let mut lease_ids = Vec::new();
                for _ in 0..n {
                    lease_ids.push(cur.u64("heartbeat.lease_id")?);
                }
                FarmRequest::Heartbeat { worker, lease_ids }
            }
            other => {
                return Err(FrameError::Malformed(format!(
                    "unknown binary farm request opcode 0x{other:02x}"
                )))
            }
        };
        cur.finish()?;
        Ok(req)
    }
}

impl FarmResponse {
    /// Encodes this response as a frame payload.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] when the encoding exceeds the frame cap.
    pub fn encode(&self) -> Result<Vec<u8>, FrameError> {
        let out = match self {
            FarmResponse::Welcome { version, lease_ms } => {
                let mut out = header(RE_WELCOME);
                put_u32(&mut out, *version);
                put_u64(&mut out, *lease_ms);
                out
            }
            FarmResponse::Leases { leases, done } => {
                let mut out = header(RE_LEASES);
                out.push(*done as u8);
                put_u32(&mut out, leases.len() as u32);
                for l in leases {
                    put_u64(&mut out, l.lease_id);
                    put_str(&mut out, &l.key);
                }
                out
            }
            FarmResponse::Accepted {
                lease_id,
                duplicate,
                stolen,
            } => {
                let mut out = header(RE_ACCEPTED);
                put_u64(&mut out, *lease_id);
                out.push(*duplicate as u8);
                out.push(*stolen as u8);
                out
            }
            FarmResponse::Heartbeats { renewed, lost } => {
                let mut out = header(RE_HEARTBEATS);
                for ids in [renewed, lost] {
                    put_u32(&mut out, ids.len() as u32);
                    for &id in ids {
                        put_u64(&mut out, id);
                    }
                }
                out
            }
            FarmResponse::FarmError { message } => {
                let mut out = header(RE_FARM_ERROR);
                put_str(&mut out, message);
                out
            }
        };
        sized(out)
    }

    /// Decodes a frame payload into a farm response.
    ///
    /// # Errors
    ///
    /// [`FrameError::Malformed`] for anything that is not a well-formed
    /// farm response frame. Never panics, whatever the bytes.
    pub fn decode(payload: &[u8]) -> Result<FarmResponse, FrameError> {
        let (opcode, mut cur) = bin_header(payload)?;
        let resp = match opcode {
            RE_WELCOME => FarmResponse::Welcome {
                version: cur.u32("welcome.version")?,
                lease_ms: cur.u64("welcome.lease_ms")?,
            },
            RE_LEASES => {
                let done = cur.u8("leases.done")? != 0;
                let n = cur.u32("leases.count")? as usize;
                let mut leases = Vec::new();
                for _ in 0..n {
                    leases.push(LeaseGrant {
                        lease_id: cur.u64("leases.lease_id")?,
                        key: cur.str_("leases.key")?,
                    });
                }
                FarmResponse::Leases { leases, done }
            }
            RE_ACCEPTED => FarmResponse::Accepted {
                lease_id: cur.u64("accepted.lease_id")?,
                duplicate: cur.u8("accepted.duplicate")? != 0,
                stolen: cur.u8("accepted.stolen")? != 0,
            },
            RE_HEARTBEATS => {
                let mut lists = [Vec::new(), Vec::new()];
                for list in &mut lists {
                    let n = cur.u32("heartbeats.count")? as usize;
                    for _ in 0..n {
                        list.push(cur.u64("heartbeats.lease_id")?);
                    }
                }
                let [renewed, lost] = lists;
                FarmResponse::Heartbeats { renewed, lost }
            }
            RE_FARM_ERROR => FarmResponse::FarmError {
                message: cur.str_("error.message")?,
            },
            other => {
                return Err(FrameError::Malformed(format!(
                    "unknown binary farm response opcode 0x{other:02x}"
                )))
            }
        };
        cur.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<FarmRequest> {
        vec![
            FarmRequest::Join {
                worker: "w0".into(),
                version: 1,
            },
            FarmRequest::Lease {
                worker: "w0".into(),
                max: 2,
            },
            FarmRequest::Complete {
                worker: "w1".into(),
                lease_id: 7,
                key: "v1|exp=attack|kind=sat|bench=c7552|spec=2x2".into(),
                payload: r#"{"cell":"0.31","report":null}"#.into(),
                wall_us: 312_000,
            },
            FarmRequest::Fail {
                worker: "w1".into(),
                lease_id: 8,
                key: "v1|exp=attack|kind=weird".into(),
                message: "unsupported cell kind".into(),
            },
            FarmRequest::Heartbeat {
                worker: "w0".into(),
                lease_ids: vec![1, 2, 9],
            },
            FarmRequest::Heartbeat {
                worker: "w0".into(),
                lease_ids: vec![],
            },
        ]
    }

    fn sample_responses() -> Vec<FarmResponse> {
        vec![
            FarmResponse::Welcome {
                version: 1,
                lease_ms: 30_000,
            },
            FarmResponse::Leases {
                leases: vec![
                    LeaseGrant {
                        lease_id: 1,
                        key: "v1|exp=attack|kind=sat|bench=b15".into(),
                    },
                    LeaseGrant {
                        lease_id: 2,
                        key: "v1|exp=attack|kind=sat|bench=aes".into(),
                    },
                ],
                done: false,
            },
            FarmResponse::Leases {
                leases: vec![],
                done: true,
            },
            FarmResponse::Accepted {
                lease_id: 1,
                duplicate: false,
                stolen: true,
            },
            FarmResponse::Heartbeats {
                renewed: vec![1, 2],
                lost: vec![3],
            },
            FarmResponse::FarmError {
                message: "key does not match lease".into(),
            },
        ]
    }

    #[test]
    fn binary_round_trips_every_shape() {
        for req in sample_requests() {
            let bytes = req.encode().unwrap();
            assert_eq!(FarmRequest::decode(&bytes).unwrap(), req);
        }
        for resp in sample_responses() {
            let bytes = resp.encode().unwrap();
            assert_eq!(FarmResponse::decode(&bytes).unwrap(), resp);
        }
    }

    #[test]
    fn truncated_binary_farm_frames_are_typed_errors() {
        let full = sample_requests()[2].encode().unwrap();
        for cut in 1..full.len() {
            assert!(
                FarmRequest::decode(&full[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        let mut padded = full;
        padded.push(0);
        assert!(matches!(
            FarmRequest::decode(&padded),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn hostile_length_fields_do_not_allocate_or_panic() {
        let mut frame = header(OP_COMPLETE);
        put_u32(&mut frame, u32::MAX);
        assert!(matches!(
            FarmRequest::decode(&frame),
            Err(FrameError::Malformed(_))
        ));
        let mut frame = header(RE_LEASES);
        frame.push(0);
        put_u32(&mut frame, u32::MAX);
        assert!(matches!(
            FarmResponse::decode(&frame),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn farm_opcodes_are_disjoint_from_oracle_frames() {
        // A farm frame must never decode as an oracle message and vice
        // versa: the opcode ranges are disjoint.
        let farm = FarmRequest::Lease {
            worker: "w".into(),
            max: 1,
        }
        .encode()
        .unwrap();
        assert!(crate::protocol::Request::decode(&farm).is_err());
        let oracle = crate::protocol::Request::Stats.encode().unwrap();
        assert!(matches!(
            FarmRequest::decode(&oracle),
            Err(FrameError::Malformed(_))
        ));
    }
}
