//! Fig. 1 / Section II-B motivation — the same polymorphic devices encoded
//! two ways for SAT simulation:
//!
//! * **MESO form**: 8 candidate gates + a 7-MUX selection tree (15 nodes,
//!   3 key bits per device) — the original formulation of \[9\];
//! * **LUT-2 form**: the 3-MUX select tree (4 key bits per device).
//!
//! The LUT-2 re-encoding both shrinks the instance and (as the paper
//! observes) lets the SAT attack finish dramatically faster than the
//! timeout-prone MESO runs reported in \[9\].

use std::time::Duration;

use ril_attacks::satattack::sat_attack;
use ril_attacks::{Oracle, SatAttackConfig};
use ril_core::key::{KeyBitKind, KeyStore};
use ril_core::lut::{materialize_lut2, materialize_meso, meso_selector_for, MESO_FUNCTIONS};
use ril_core::LockedCircuit;
use ril_netlist::gate::truth_table_of;
use ril_netlist::{generators, GateId, GateKind, Netlist};

use crate::cell::EncodingCell;
use crate::experiment::{Experiment, ExperimentError, ExperimentOutput, RunContext};
use crate::{print_table, CellOutcome, CellSpec, RunConfig};

/// The Fig. 1 encoding comparison.
pub struct Fig1;

/// Replaces `count` MESO-representable gates using either encoding.
fn lock_with_encoding(
    host: &Netlist,
    count: usize,
    meso: bool,
) -> Result<LockedCircuit, ExperimentError> {
    let mut nl = host.clone();
    let mut keys = KeyStore::new();
    let victims: Vec<GateId> = nl
        .gates()
        .filter(|(_, g)| {
            g.inputs().len() == 2
                && truth_table_of(g.kind())
                    .map(|tt| MESO_FUNCTIONS.contains(&tt))
                    .unwrap_or(false)
        })
        .map(|(id, _)| id)
        .take(count)
        .collect();
    if victims.len() != count {
        return Err(format!(
            "host has only {} MESO-encodable gates, needed {count}",
            victims.len()
        )
        .into());
    }
    for gid in victims {
        let gate = nl.gate(gid);
        let (a, b) = (gate.inputs()[0], gate.inputs()[1]);
        let out = gate.output();
        let tt = truth_table_of(gate.kind()).ok_or("victim gate lost its truth table")?;
        nl.remove_gate(gid);
        let new_out = if meso {
            let sel = meso_selector_for(tt).ok_or("truth table is not a MESO function")?;
            let mut knets = Vec::new();
            for bit in 0..3 {
                let net = nl.add_key_input(format!("keyinput{}", keys.len()))?;
                keys.push(KeyBitKind::Baseline, (sel >> bit) & 1 == 1);
                knets.push(net);
            }
            materialize_meso(&mut nl, a, b, [knets[0], knets[1], knets[2]])?
        } else {
            let mut knets = Vec::new();
            for bit in 0..4 {
                let net = nl.add_key_input(format!("keyinput{}", keys.len()))?;
                keys.push(KeyBitKind::Baseline, (tt >> bit) & 1 == 1);
                knets.push(net);
            }
            materialize_lut2(&mut nl, a, b, [knets[0], knets[1], knets[2], knets[3]])?
        };
        nl.add_gate(GateKind::Buf, &[new_out], out)?;
    }
    Ok(LockedCircuit {
        original: host.clone(),
        netlist: nl,
        keys,
        spec: ril_core::RilBlockSpec::size_2x2(),
        blocks: 0,
        block_meta: Vec::new(),
    })
}

/// The device counts this configuration sweeps.
fn device_counts(cfg: &RunConfig) -> &'static [usize] {
    if cfg.smoke {
        &[4, 8]
    } else {
        &[4, 8, 16, 32]
    }
}

/// SAT-attacks the cell's host with its gates replaced in the MESO or
/// the LUT-2 encoding.
pub(crate) fn encoding_cell(c: &EncodingCell) -> Result<CellOutcome, ExperimentError> {
    let host = generators::by_name(&c.bench)?;
    let locked = lock_with_encoding(&host, c.devices, c.meso)?;
    locked.netlist.validate()?;
    let mut oracle = Oracle::new(&locked)?;
    let attack_cfg = SatAttackConfig {
        timeout: Some(Duration::from_secs(c.timeout_s)),
        ..SatAttackConfig::default()
    };
    let report = sat_attack(&locked.netlist, &mut oracle, &attack_cfg);
    let extra_gates = locked.netlist.gate_count() - host.gate_count();
    Ok(CellOutcome {
        cell: format!("{} ({} extra gates)", report.table_cell(), extra_gates),
        report: Some(report),
    })
}

impl Experiment for Fig1 {
    fn name(&self) -> &'static str {
        "fig1"
    }

    fn describe(&self) -> &'static str {
        "Fig. 1 — SAT runtimes: MESO encoding vs LUT-2 re-encoding"
    }

    fn run(&self, cfg: &RunConfig, ctx: &RunContext) -> Result<ExperimentOutput, ExperimentError> {
        ctx.note(&format!(
            "Fig. 1 reproduction — host `c7552`, timeout {:?}",
            cfg.timeout
        ));
        let outcomes = ctx.outcomes(&self.cells(cfg), 1);
        let rows: Vec<Vec<String>> = device_counts(cfg)
            .iter()
            .zip(outcomes.chunks(2))
            .map(|(count, cells)| {
                let mut row = vec![count.to_string()];
                row.extend(cells.iter().map(|c| c.cell.clone()));
                row
            })
            .collect();
        print_table(
            "Fig. 1 — SAT-attack seconds per encoding",
            &[
                "Devices",
                "MESO form (8 gates + 7 MUX)",
                "LUT-2 form (3 MUX)",
            ],
            &rows,
        );
        ctx.note(
            "key-space note: a 2-input LUT covers all 16 functions (Table II) with 4 \
             key bits, vs the MESO device's 8 functions with 3 bits — yet its SAT \
             encoding is 5× smaller (3 nodes vs 15), which is what erases the \
             MESO formulation's apparent SAT-hardness",
        );
        Ok(ExperimentOutput::summary(format!(
            "{} device counts × 2 encodings attacked",
            device_counts(cfg).len()
        )))
    }

    /// Per device count, the MESO cell then the LUT-2 cell.
    fn cells(&self, cfg: &RunConfig) -> Vec<CellSpec> {
        device_counts(cfg)
            .iter()
            .flat_map(|&devices| {
                [true, false].map(|meso| {
                    CellSpec::Fig1(EncodingCell {
                        bench: "c7552".to_string(),
                        devices,
                        meso,
                        timeout_s: cfg.timeout.as_secs(),
                    })
                })
            })
            .collect()
    }
}
