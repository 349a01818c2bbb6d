//! # ril-core — RIL-Blocks: Reconfigurable Interconnect and Logic Blocks
//!
//! The paper's primary contribution: dynamic hardware obfuscation built
//! from MRAM-based 2-input LUTs ([`lut`]), logarithmic banyan routing
//! networks ([`banyan`]), and their composition into `N×N` / `N×N×N`
//! RIL-Blocks ([`block`]) inserted into gate-level netlists
//! ([`insertion`], [`obfuscate`]). Scan-Enable output obfuscation is part
//! of the block construction; dynamic morphing lives in [`morph`];
//! security/overhead metrics in [`metrics`]; and published baseline locks
//! (XOR, Anti-SAT, SFLL) in [`baselines`].
//!
//! ## Quickstart
//!
//! ```
//! use ril_core::{Obfuscator, RilBlockSpec};
//! use ril_netlist::generators;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let host = generators::benchmark("c7552").expect("known benchmark");
//! let locked = Obfuscator::new(RilBlockSpec::size_8x8x8())
//!     .blocks(3)
//!     .scan_obfuscation(true)
//!     .seed(1)
//!     .obfuscate(&host)?;
//! assert!(locked.verify(8)?);
//! println!("{} key bits, {} extra gates", locked.key_width(), locked.gate_overhead());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod banyan;
pub mod baselines;
pub mod block;
pub mod insertion;
pub mod key;
pub mod lut;
pub mod metrics;
pub mod morph;
pub mod obfuscate;

pub use banyan::BanyanNetwork;
pub use block::{BlockMeta, ObfuscateError, RilBlockSpec};
pub use insertion::InsertionPolicy;
pub use key::{KeyBitKind, KeyStore};
pub use metrics::{output_corruptibility, ril_overhead, OverheadEstimate};
pub use morph::{morph_all, morph_block, MorphReport};
pub use obfuscate::{LockedCircuit, Obfuscator, SE_PIN};
