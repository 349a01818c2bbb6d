//! Logic-cone analysis: transitive fan-out extraction.
//!
//! The paper's insertion discussion (Section III-D) contrasts random gate
//! selection with the community habit of targeting large output logic cones;
//! [`fanout_cone`] supplies the cone a candidate insertion point drives.
//!
//! The traversal reuses the netlist's incrementally maintained
//! [`FanoutTable`] instead of rebuilding the net → consumers map per call.
//! Key-bit cones and the outputs a morph dirtied have one accessor each,
//! on the cached [`KeyAnalysis`] (`nl.key_analysis().cone(bit)` and
//! `nl.key_analysis().dirty_outputs(bits)`). Results are sorted `Vec`s so
//! iteration order is deterministic.
//!
//! [`FanoutTable`]: crate::analysis::FanoutTable
//! [`KeyAnalysis`]: crate::analysis::KeyAnalysis

#![deny(clippy::iter_over_hash_type)]

use crate::netlist::{GateId, NetId, Netlist};

/// The transitive fan-out cone of a net: every gate whose output
/// structurally depends on `net`. Sorted by gate id.
pub fn fanout_cone(nl: &Netlist, net: NetId) -> Vec<GateId> {
    let fanout = nl.fanout();
    let mut seen_nets = vec![false; nl.net_count()];
    let mut in_cone = vec![false; nl.gate_arena_len()];
    let mut cone: Vec<GateId> = Vec::new();
    let mut stack = vec![net];
    while let Some(n) = stack.pop() {
        if std::mem::replace(&mut seen_nets[n.index()], true) {
            continue;
        }
        for &gid in fanout.consumers(n) {
            if !std::mem::replace(&mut in_cone[gid.index()], true) {
                cone.push(gid);
                stack.push(nl.gate(gid).output());
            }
        }
    }
    cone.sort_unstable();
    cone
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::c17;

    #[test]
    fn fanout_cone_reaches_outputs() {
        let nl = c17();
        let g11 = nl.net_id("G11").unwrap();
        let cone = fanout_cone(&nl, g11);
        // G11 feeds G16 and G19; G16 feeds G22 and G23; G19 feeds G23 => 4 gates.
        assert_eq!(cone.len(), 4);
    }

    #[test]
    fn cones_are_sorted_and_deduped() {
        let nl = c17();
        for netname in ["G3", "G11", "G16"] {
            let cone = fanout_cone(&nl, nl.net_id(netname).unwrap());
            let mut sorted = cone.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(cone, sorted);
        }
    }

    #[test]
    fn key_cone_matches_fanout_cone() {
        let mut nl = c17();
        // Retrofit a key input feeding G10's gate.
        let k = nl.add_key_input("k0").unwrap();
        let g10 = nl.net_id("G10").unwrap();
        let driver = nl.net(g10).driver().unwrap();
        let inputs = nl.gate(driver).inputs().to_vec();
        nl.remove_gate(driver);
        let kn = nl.add_net("g10_keyed").unwrap();
        nl.add_gate(crate::gate::GateKind::Nand, &inputs, kn)
            .unwrap();
        let masked = nl.add_net("g10_mask").unwrap();
        nl.add_gate(crate::gate::GateKind::Xor, &[kn, k], masked)
            .unwrap();
        nl.redirect_consumers(g10, masked);
        // The cached key cone equals a fresh traversal.
        let keys = nl.key_analysis();
        assert_eq!(keys.cone(0), fanout_cone(&nl, k).as_slice());
        assert!(!keys.dirty_outputs(&[0]).is_empty());
        assert!(keys.dirty_outputs(&[]).is_empty());
    }
}
