//! # ril-attacks — the oracle-guided adversary suite
//!
//! Everything the paper attacks RIL-Blocks with (and the baselines those
//! attacks *do* break):
//!
//! * [`satattack`] — the oracle-guided SAT attack with a CaDiCaL-class
//!   CDCL backend.
//! * [`appsat`] — the approximate attack, with error-estimation rounds.
//! * [`removal`] — removal + bypass of key-dependent logic.
//! * [`scansat`] — the scan-chain modelling attack and the
//!   boundary-inversion victim it was designed for.
//!
//! The three oracle-guided attacks share one driver (the private
//! `session` module): one DIP loop over one incremental miter solver,
//! one key extraction, one trace span and one report. Each attack module
//! is the policy it passes that driver.
//! * [`oracle`] — the activated-IC black box (scan accesses assert `SE`,
//!   so Scan-Enable-defended designs answer with corrupted responses).
//! * [`json`] — the hand-rolled JSON reader matching the suite's
//!   hand-rolled writers (no crates-io `serde` in this environment).
//!
//! ## Quickstart
//!
//! Every attack runs behind the unified API of the [`attack`] module:
//! pick an [`AttackKind`], fill an [`AttackConfig`] (one struct for all
//! four attacks), and run it with [`run_attack`], the one harness: it
//! builds the attacker view and oracle and checks the recovered key with
//! [`check_key`].
//!
//! ```
//! use ril_attacks::prelude::*;
//! use ril_core::{Obfuscator, RilBlockSpec};
//! use ril_netlist::generators;
//! use std::time::Duration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let host = generators::adder(8);
//! let locked = Obfuscator::new(RilBlockSpec::size_2x2()).seed(1).obfuscate(&host)?;
//! let cfg = AttackConfig {
//!     timeout: Some(Duration::from_secs(20)),
//!     ..AttackConfig::default()
//! };
//! let outcome = run_attack(AttackKind::Sat, &locked, &cfg)?;
//! println!("{}", outcome.report);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod appsat;
pub mod attack;
pub mod json;
mod miter;
pub mod oracle;
pub mod prelude;
pub mod removal;
pub mod report;
pub mod satattack;
pub mod scansat;
mod session;

pub use appsat::AppSatConfig;
pub use attack::{check_key, run_attack, AttackConfig, AttackKind, AttackOutcome};
pub use oracle::{attacker_view, Oracle, OracleError, OracleSource};
pub use removal::RemovalReport;
pub use report::{AttackReport, AttackResult, IterationStats};
// The lane-packed batch carriers every `OracleSource` speaks, re-exported
// so oracle implementors need not depend on `ril-netlist` directly.
pub use ril_netlist::{PatternBlock, ResponseBlock, MAX_LANES};
pub use satattack::SatAttackConfig;
pub use scansat::{output_inversion_lock, scansat_model_attack};
