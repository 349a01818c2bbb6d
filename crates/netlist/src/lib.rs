//! # ril-netlist — gate-level EDA substrate
//!
//! The netlist foundation of the RIL-Blocks reproduction: an arena-based
//! gate-level [`Netlist`] with structural editing, ISCAS `.bench` I/O
//! ([`parse_bench`]/[`write_bench`]), a 64-way bit-parallel
//! [`CompiledSim`], cached structural analyses ([`analysis`], with the
//! fan-out cones of [`cone`]), and deterministic synthetic benchmark
//! [`generators`] standing in for the ISCAS-85/89, ITC-99 and CEP circuits
//! the paper evaluates on.
//!
//! ## Quickstart
//!
//! ```
//! use ril_netlist::{generators, CompiledSim};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A synthetic c7552-class host circuit.
//! let nl = generators::benchmark("c7552").expect("known benchmark");
//! let stats = nl.stats();
//! assert!(stats.gates > 1000);
//!
//! // Simulate 64 random patterns in one call.
//! let mut sim = CompiledSim::new(&nl)?;
//! let data = vec![0u64; nl.data_inputs().len()];
//! let outputs = sim.eval_words(&data, &[]);
//! assert_eq!(outputs.len(), nl.outputs().len());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod bench;
pub mod cone;
pub mod gate;
pub mod generators;
pub mod netlist;
pub mod opt;
pub mod pattern;
pub mod sim;
pub mod verilog;

pub use analysis::{AnalysisCache, FanoutTable, KeyAnalysis, LevelMap};
pub use bench::{parse_bench, write_bench, ParseBenchError};
pub use gate::GateKind;
pub use netlist::{Gate, GateId, Net, NetId, Netlist, NetlistError, NetlistStats};
pub use opt::{optimize, OptStats};
pub use pattern::{PatternBlock, ResponseBlock, MAX_LANES};
pub use sim::CompiledSim;
pub use verilog::{parse_verilog, write_verilog, ParseVerilogError};
