//! # ril-blocks — RIL-Blocks dynamic hardware obfuscation suite
//!
//! A full reproduction of *"Securing Hardware via Dynamic Obfuscation
//! Utilizing Reconfigurable Interconnect and Logic Blocks"* (DAC 2021):
//! MRAM-LUT + banyan-routing obfuscation, the oracle-guided attack suite it
//! defends against, and the device/side-channel substrates behind the
//! paper's evaluation.
//!
//! This meta-crate re-exports the workspace members:
//!
//! * [`netlist`] — gate-level netlists, `.bench` I/O, simulation, synthetic
//!   ISCAS/CEP benchmark generators;
//! * [`sat`] — a from-scratch CDCL SAT solver with Tseitin encoding and
//!   SAT-based equivalence checking;
//! * [`mram`] — behavioural STT-MRAM LUT circuit models (transient,
//!   Monte-Carlo, energy);
//! * [`core`] — the RIL-Block obfuscation primitives, insertion, dynamic
//!   morphing, metrics and baseline locks;
//! * [`attacks`] — SAT attack, AppSAT, removal, ScanSAT;
//! * [`sca`] — power-trace synthesis and DPA/CPA attacks;
//! * [`serve`] — the networked activation service: hosted chips behind a
//!   framed TCP protocol, a live morph scheduler, and the
//!   [`serve::RemoteOracle`] adapter that points the attack suite at it.
//!
//! ## Quickstart
//!
//! ```
//! use ril_blocks::core::{Obfuscator, RilBlockSpec};
//! use ril_blocks::netlist::generators;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let host = generators::benchmark("c7552").expect("known benchmark");
//! let locked = Obfuscator::new(RilBlockSpec::size_8x8x8())
//!     .blocks(3)
//!     .scan_obfuscation(true)
//!     .seed(2021)
//!     .obfuscate(&host)?;
//! assert!(locked.verify(8)?);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use ril_attacks as attacks;
pub use ril_core as core;
pub use ril_mram as mram;
pub use ril_netlist as netlist;
pub use ril_sat as sat;
pub use ril_sca as sca;
pub use ril_serve as serve;
pub use ril_trace as trace;
