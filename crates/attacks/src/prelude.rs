//! One-line import for attack drivers:
//! `use ril_attacks::prelude::*;` brings in the unified [`run_attack`] API,
//! the per-attack config structs it projects onto, and the report types.

pub use crate::appsat::AppSatConfig;
pub use crate::attack::{check_key, run_attack, AttackConfig, AttackKind, AttackOutcome};
pub use crate::oracle::{attacker_view, Oracle, OracleError, OracleSource};
pub use crate::removal::RemovalReport;
pub use crate::report::{AttackReport, AttackResult, IterationStats};
pub use crate::satattack::SatAttackConfig;
pub use ril_netlist::{PatternBlock, ResponseBlock, MAX_LANES};
