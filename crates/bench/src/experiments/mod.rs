//! The experiments: one module per table/figure, each implementing
//! [`crate::Experiment`]. These are the former `src/bin/*` drivers,
//! reworked to take the typed [`crate::RunConfig`], propagate errors
//! instead of `unwrap`ping, and declare their cached cells as
//! [`crate::CellSpec`]s that [`crate::RunContext::outcomes`] runs through
//! the content-addressed cache.

pub mod corruptibility;
pub mod dynamic_defense;
pub mod fig1;
pub mod fig5;
pub mod fig6;
pub mod incremental_verify;
pub mod key_redundancy;
pub mod lut_scaling;
pub mod oracle_throughput;
pub mod overhead;
pub mod scan_defense;
pub mod serve_load;
pub mod solver_ablation;
pub mod table1;
pub mod table3;
pub mod table4;
pub mod table5;
