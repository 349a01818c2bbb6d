//! # ril-serve — the activation service and dynamic-defense runtime
//!
//! The paper's threat model splits the world into a trusted party that
//! *activates* chips (burns the key into tamper-proof memory) and an
//! adversary with oracle access to an activated part. This crate makes
//! that split literal: a TCP service hosts activated chips and answers
//! oracle queries over a length-prefixed binary protocol, while a
//! **morph scheduler** re-keys every hosted chip each K queries or T
//! milliseconds — the dynamic obfuscation the paper argues defeats
//! accumulated SAT-attack progress. Morphs happen only server-side: a
//! client, who plays the attacker, learns nothing of a re-key but the
//! key generation stamped on each response.
//!
//! * [`protocol`] — the message types: typed [`protocol::ErrorKind`]s and
//!   [`protocol::DesignSpec`] (chips are provisioned by deterministic
//!   recipe, never by shipping a netlist).
//! * [`codec`] — how messages become frame payloads: a 4-byte big-endian
//!   length prefix, then the compact binary encoding
//!   ([`Request::encode`]/[`Request::decode`] and the [`Response`] pair),
//!   whose version byte is the only version check.
//! * [`server`] — the oracle service: request dispatch, request
//!   pipelining, and the chip table striped over N shard locks.
//! * [`conn`] — one blocking thread per connection, with explicit
//!   shutdown wake-ups; the farm coordinator runs the same loop.
//! * `scheduler` — the re-keying triggers, walking one shard at a time.
//! * [`client`] — [`RemoteOracle`]: an [`ril_attacks::OracleSource`] over
//!   TCP with reconnect/retry, so SAT, AppSAT and ScanSAT run unchanged
//!   against a live, morphing target. Built via [`ServeClient::builder`].
//! * [`farm`] — the experiment-farm vocabulary: cell-lease requests and
//!   responses ([`FarmRequest`]/[`FarmResponse`]) riding the same framing
//!   and binary header on a disjoint opcode range, for `ril-bench`'s
//!   distributed sweep coordinator (DESIGN.md §17).
//!
//! ## Quickstart
//!
//! ```
//! use ril_serve::{DesignSpec, RemoteOracle, ServeClient, ServeConfig, Server};
//! use ril_attacks::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let handle = Server::start(ServeConfig::default())?;
//! let design = DesignSpec {
//!     benchmark: "adder:6".into(), spec: "2x2".into(), blocks: 1,
//!     seed: 7, scan: false, zero_se: false,
//! };
//! let client = ServeClient::builder(handle.addr().to_string()).build()?;
//! let mut oracle = RemoteOracle::activate_with(client, &design)?;
//! let view = attacker_view(&design.build()?);
//! let report = ril_attacks::satattack::sat_attack(
//!     &view, &mut oracle, &SatAttackConfig::default());
//! assert!(matches!(report.result, AttackResult::ExactKey(_)));
//! handle.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod conn;
pub mod farm;
pub mod protocol;
mod scheduler;
pub mod server;

pub use client::{ClientBuilder, ClientError, RemoteOracle, ServeClient};
pub use codec::{read_frame_bytes, write_frame_bytes, WireCodec, PROTOCOL_VERSION};
pub use farm::{FarmRequest, FarmResponse, LeaseGrant, FARM_PROTOCOL_VERSION};
pub use protocol::{
    ChipStats, DesignSpec, ErrorKind, FrameError, Request, Response, ServerStats, MAX_FRAME_BYTES,
};
pub use server::{ServeConfig, Server, ServerHandle};
