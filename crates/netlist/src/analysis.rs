//! Generation-stamped cached structural analyses over a [`Netlist`].
//!
//! Every structural query the rest of the workspace leans on — fanout
//! tables, topological order, levelization, structural hashing, key-bit
//! fan-out cones — used to be recomputed from scratch on each call. This
//! module stores them once in an [`AnalysisCache`] embedded in the
//! [`Netlist`]; mutating edits invalidate exactly the entries they can
//! affect (and maintain the fanout table incrementally instead of dropping
//! it), so repeated cone queries after a morph cost a hash-map read, not a
//! full netlist walk.
//!
//! Invalidation matrix (rows: edits, columns: cached entries):
//!
//! | edit                | fanout      | topo  | levels | hash | key cones |
//! |---------------------|-------------|-------|--------|------|-----------|
//! | `add_net`           | extend      | keep  | keep   | keep | keep      |
//! | `add_input`         | extend      | keep  | keep   | drop | keep      |
//! | `add_key_input`     | extend      | keep  | keep   | drop | extend    |
//! | `mark_output`       | keep        | keep  | keep   | drop | keep      |
//! | `add_gate`          | attach      | drop  | drop   | drop | drop      |
//! | `remove_gate`       | detach      | drop  | drop   | drop | drop      |
//! | `redirect_consumers`| move        | drop  | drop   | drop | drop      |
//! | `set_gate_kind`     | keep        | keep  | keep   | drop | keep      |
//!
//! The cache lives behind a [`std::sync::RwLock`] so a shared `&Netlist`
//! (the bench sweeps fan netlists across threads) can fill entries lazily;
//! mutators hold `&mut Netlist` and edit the cache lock-free through
//! `get_mut`. All returned collections are sorted so downstream iteration
//! is deterministic regardless of hash-map seeding.

#![deny(clippy::iter_over_hash_type)]

use crate::netlist::{GateId, NetId, Netlist, NetlistError};
use std::sync::{Arc, RwLock};

/// The net → consuming-gates table, maintained incrementally across edits.
///
/// A gate listing the same net twice in its fan-in appears once per
/// occurrence; each per-net list is kept sorted by [`GateId`].
#[derive(Debug, Clone, Default)]
pub struct FanoutTable {
    consumers: Vec<Vec<GateId>>,
}

impl FanoutTable {
    fn build(nl: &Netlist) -> FanoutTable {
        let mut consumers = vec![Vec::new(); nl.net_count()];
        for (id, gate) in nl.gates() {
            for &inp in gate.inputs() {
                consumers[inp.index()].push(id);
            }
        }
        for list in &mut consumers {
            list.sort_unstable();
        }
        FanoutTable { consumers }
    }

    /// Gates consuming `net`, sorted by id (one entry per fan-in position).
    pub fn consumers(&self, net: NetId) -> &[GateId] {
        self.consumers
            .get(net.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of nets the table covers.
    pub fn len(&self) -> usize {
        self.consumers.len()
    }

    /// Whether the table covers no nets.
    pub fn is_empty(&self) -> bool {
        self.consumers.is_empty()
    }

    fn note_net_added(&mut self) {
        self.consumers.push(Vec::new());
    }

    fn attach(&mut self, net: NetId, gate: GateId) {
        let list = &mut self.consumers[net.index()];
        let pos = list.partition_point(|&g| g < gate);
        list.insert(pos, gate);
    }

    fn detach(&mut self, net: NetId, gate: GateId) {
        let list = &mut self.consumers[net.index()];
        if let Ok(pos) = list.binary_search(&gate) {
            list.remove(pos);
        }
    }
}

/// Per-net combinational levels plus the overall depth.
#[derive(Debug, Clone, Default)]
pub struct LevelMap {
    levels: Vec<usize>,
    depth: usize,
}

impl LevelMap {
    /// The combinational level of `net` (0 for primary inputs and dangling
    /// nets; a gate output is one more than its deepest fan-in).
    pub fn level(&self, net: NetId) -> usize {
        self.levels.get(net.index()).copied().unwrap_or(0)
    }

    /// Longest combinational path length in gate levels.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

/// Key-bit structural analysis: the fan-out cone of each key bit, the
/// gates whose value can depend on it. The attack encodes the union of
/// these cones twice in its miter and folds them per DIP.
#[derive(Debug, Clone, Default)]
pub struct KeyAnalysis {
    cones: Vec<Vec<GateId>>,
}

impl KeyAnalysis {
    fn build(nl: &Netlist, fanout: &FanoutTable) -> KeyAnalysis {
        let n_nets = nl.net_count();
        let key_inputs = nl.key_inputs();
        let mut cones = Vec::with_capacity(key_inputs.len());
        for &k in key_inputs {
            let mut seen = vec![false; n_nets];
            let mut cone: Vec<GateId> = Vec::new();
            let mut in_cone = vec![false; nl.gate_arena_len()];
            let mut stack = vec![k];
            while let Some(n) = stack.pop() {
                if std::mem::replace(&mut seen[n.index()], true) {
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
            cones.push(cone);
        }
        KeyAnalysis { cones }
    }

    /// The fan-out cone of key bit `bit` (sorted gate ids). Empty slice for
    /// out-of-range bits.
    pub fn cone(&self, bit: usize) -> &[GateId] {
        self.cones.get(bit).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of key bits covered.
    pub fn key_bits(&self) -> usize {
        self.cones.len()
    }
}

#[derive(Debug, Clone, Default)]
struct CacheInner {
    fanout: Option<Arc<FanoutTable>>,
    topo: Option<Result<Arc<Vec<GateId>>, NetlistError>>,
    levels: Option<Result<Arc<LevelMap>, NetlistError>>,
    structural_hash: Option<u64>,
    keys: Option<Arc<KeyAnalysis>>,
}

/// Lazily-filled, precisely-invalidated analysis store embedded in each
/// [`Netlist`]. See the module docs for the invalidation matrix.
#[derive(Default)]
pub struct AnalysisCache {
    inner: RwLock<CacheInner>,
}

impl Clone for AnalysisCache {
    fn clone(&self) -> AnalysisCache {
        AnalysisCache {
            inner: RwLock::new(self.inner.read().expect("analysis cache lock").clone()),
        }
    }
}

impl std::fmt::Debug for AnalysisCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read().expect("analysis cache lock");
        f.debug_struct("AnalysisCache")
            .field("fanout", &inner.fanout.is_some())
            .field("topo", &inner.topo.is_some())
            .field("levels", &inner.levels.is_some())
            .field("structural_hash", &inner.structural_hash)
            .field("keys", &inner.keys.is_some())
            .finish()
    }
}

impl AnalysisCache {
    /// The cached fanout table, built on first use and maintained
    /// incrementally afterwards.
    pub(crate) fn fanout(&self, nl: &Netlist) -> Arc<FanoutTable> {
        if let Some(t) = &self.inner.read().expect("analysis cache lock").fanout {
            return Arc::clone(t);
        }
        let built = Arc::new(FanoutTable::build(nl));
        let mut inner = self.inner.write().expect("analysis cache lock");
        inner.fanout.get_or_insert(built).clone()
    }

    pub(crate) fn topo(&self, nl: &Netlist) -> Result<Arc<Vec<GateId>>, NetlistError> {
        if let Some(t) = &self.inner.read().expect("analysis cache lock").topo {
            return t.clone();
        }
        let computed = compute_topo(nl, &self.fanout(nl)).map(Arc::new);
        let mut inner = self.inner.write().expect("analysis cache lock");
        inner.topo.get_or_insert(computed).clone()
    }

    pub(crate) fn levels(&self, nl: &Netlist) -> Result<Arc<LevelMap>, NetlistError> {
        if let Some(l) = &self.inner.read().expect("analysis cache lock").levels {
            return l.clone();
        }
        let computed = self
            .topo(nl)
            .map(|order| Arc::new(compute_levels(nl, &order)));
        let mut inner = self.inner.write().expect("analysis cache lock");
        inner.levels.get_or_insert(computed).clone()
    }

    pub(crate) fn structural_hash(&self, nl: &Netlist) -> u64 {
        if let Some(h) = self
            .inner
            .read()
            .expect("analysis cache lock")
            .structural_hash
        {
            return h;
        }
        let computed = compute_structural_hash(nl);
        let mut inner = self.inner.write().expect("analysis cache lock");
        *inner.structural_hash.get_or_insert(computed)
    }

    pub(crate) fn keys(&self, nl: &Netlist) -> Arc<KeyAnalysis> {
        if let Some(k) = &self.inner.read().expect("analysis cache lock").keys {
            return Arc::clone(k);
        }
        let built = Arc::new(KeyAnalysis::build(nl, &self.fanout(nl)));
        let mut inner = self.inner.write().expect("analysis cache lock");
        inner.keys.get_or_insert(built).clone()
    }

    // ---- mutation hooks (called with `&mut Netlist` held) ----

    fn inner_mut(&mut self) -> &mut CacheInner {
        self.inner.get_mut().expect("analysis cache lock")
    }

    pub(crate) fn note_net_added(&mut self) {
        if let Some(f) = self.inner_mut().fanout.as_mut() {
            Arc::make_mut(f).note_net_added();
        }
    }

    pub(crate) fn note_input_added(&mut self) {
        self.inner_mut().structural_hash = None;
    }

    pub(crate) fn note_key_input_added(&mut self) {
        let inner = self.inner_mut();
        inner.structural_hash = None;
        if let Some(k) = inner.keys.as_mut() {
            // The new bit drives nothing yet: an empty cone.
            Arc::make_mut(k).cones.push(Vec::new());
        }
    }

    pub(crate) fn note_output_marked(&mut self) {
        self.inner_mut().structural_hash = None;
    }

    pub(crate) fn note_gate_added(&mut self, id: GateId, inputs: &[NetId]) {
        let inner = self.inner_mut();
        if let Some(f) = inner.fanout.as_mut() {
            let f = Arc::make_mut(f);
            for &inp in inputs {
                f.attach(inp, id);
            }
        }
        inner.topo = None;
        inner.levels = None;
        inner.structural_hash = None;
        inner.keys = None;
    }

    pub(crate) fn note_gate_removed(&mut self, id: GateId, inputs: &[NetId]) {
        let inner = self.inner_mut();
        if let Some(f) = inner.fanout.as_mut() {
            let f = Arc::make_mut(f);
            for &inp in inputs {
                f.detach(inp, id);
            }
        }
        inner.topo = None;
        inner.levels = None;
        inner.structural_hash = None;
        inner.keys = None;
    }

    /// `count` fan-in positions of `id` moved from `old` to `new`.
    pub(crate) fn note_fanin_moved(&mut self, id: GateId, old: NetId, new: NetId, count: usize) {
        let inner = self.inner_mut();
        if let Some(f) = inner.fanout.as_mut() {
            let f = Arc::make_mut(f);
            for _ in 0..count {
                f.detach(old, id);
                f.attach(new, id);
            }
        }
        inner.topo = None;
        inner.levels = None;
        inner.structural_hash = None;
        inner.keys = None;
    }

    pub(crate) fn note_kind_changed(&mut self) {
        self.inner_mut().structural_hash = None;
    }
}

fn compute_topo(nl: &Netlist, fanout: &FanoutTable) -> Result<Vec<GateId>, NetlistError> {
    // Kahn's algorithm over the gate arena; u32::MAX marks dead slots.
    const DEAD: u32 = u32::MAX;
    let mut indegree: Vec<u32> = vec![DEAD; nl.gate_arena_len()];
    let mut ready: Vec<GateId> = Vec::new();
    let mut live = 0usize;
    for (id, gate) in nl.gates() {
        let deps = gate
            .inputs()
            .iter()
            .filter(|&&n| nl.net(n).driver().is_some())
            .count() as u32;
        indegree[id.index()] = deps;
        live += 1;
        if deps == 0 {
            ready.push(id);
        }
    }
    let mut order = Vec::with_capacity(live);
    while let Some(id) = ready.pop() {
        order.push(id);
        let out = nl.gate(id).output();
        for &consumer in fanout.consumers(out) {
            let d = &mut indegree[consumer.index()];
            debug_assert_ne!(*d, DEAD, "consumer is live");
            *d -= 1;
            if *d == 0 {
                ready.push(consumer);
            }
        }
    }
    if order.len() != live {
        let mut placed = vec![false; nl.gate_arena_len()];
        for &id in &order {
            placed[id.index()] = true;
        }
        let stuck = nl
            .gates()
            .find(|(id, _)| !placed[id.index()])
            .map(|(id, _)| nl.net(nl.gate(id).output()).name().to_string())
            .unwrap_or_default();
        return Err(NetlistError::CombinationalCycle(stuck));
    }
    Ok(order)
}

fn compute_levels(nl: &Netlist, order: &[GateId]) -> LevelMap {
    let mut levels = vec![0usize; nl.net_count()];
    let mut depth = 0;
    for &id in order {
        let gate = nl.gate(id);
        let lvl = gate
            .inputs()
            .iter()
            .map(|n| levels[n.index()])
            .max()
            .unwrap_or(0)
            + 1;
        levels[gate.output().index()] = lvl;
        depth = depth.max(lvl);
    }
    LevelMap { levels, depth }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv1a_u64(state: u64, v: u64) -> u64 {
    fnv1a(state, &v.to_le_bytes())
}

/// A name-based structural hash, invariant under arena renumbering and gate
/// declaration order (but sensitive to port order, gate functions, and
/// connectivity). Two netlists that print to the same Verilog modulo gate
/// ordering hash identically; the design *name* is excluded so renamed
/// copies still match.
fn compute_structural_hash(nl: &Netlist) -> u64 {
    // Per-gate fingerprints, combined order-independently by sorting.
    let mut gate_hashes: Vec<u64> = nl
        .gates()
        .map(|(_, gate)| {
            let mut h = fnv1a(FNV_OFFSET, gate.kind().mnemonic().as_bytes());
            h = fnv1a(h, b"(");
            for &inp in gate.inputs() {
                h = fnv1a(h, nl.net(inp).name().as_bytes());
                h = fnv1a(h, b",");
            }
            h = fnv1a(h, b")->");
            fnv1a(h, nl.net(gate.output()).name().as_bytes())
        })
        .collect();
    gate_hashes.sort_unstable();
    let mut h = FNV_OFFSET;
    for gh in gate_hashes {
        h = fnv1a_u64(h, gh);
    }
    // Ports in declaration order: order is semantic (simulation vectors,
    // key bit indices, positional output matching).
    h = fnv1a(h, b"|inputs|");
    for &i in nl.inputs() {
        h = fnv1a(h, nl.net(i).name().as_bytes());
        h = fnv1a(h, b",");
    }
    h = fnv1a(h, b"|keys|");
    for &k in nl.key_inputs() {
        h = fnv1a(h, nl.net(k).name().as_bytes());
        h = fnv1a(h, b",");
    }
    h = fnv1a(h, b"|outputs|");
    for &o in nl.outputs() {
        h = fnv1a(h, nl.net(o).name().as_bytes());
        h = fnv1a(h, b",");
    }
    h
}

#[cfg(test)]
impl AnalysisCache {
    /// Whether an entry is currently cached (test/diagnostic hook).
    fn has_fanout(&self) -> bool {
        self.inner
            .read()
            .expect("analysis cache lock")
            .fanout
            .is_some()
    }

    /// Whether the topological order is currently cached.
    fn has_topo(&self) -> bool {
        self.inner
            .read()
            .expect("analysis cache lock")
            .topo
            .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::c17;
    use crate::gate::GateKind;

    #[test]
    fn fanout_table_matches_fresh_build() {
        let nl = c17();
        let cached = nl.fanout();
        let fresh = FanoutTable::build(&nl);
        for (id, _) in nl.nets() {
            assert_eq!(cached.consumers(id), fresh.consumers(id), "net {id}");
        }
    }

    #[test]
    fn fanout_table_maintained_across_edits() {
        let mut nl = c17();
        let _warm = nl.fanout(); // force the cache to exist before editing
        let g10 = nl.net_id("G10").unwrap();
        let driver = nl.net(g10).driver().unwrap();
        let consumers_before = nl.fanout().consumers(g10).to_vec();
        assert!(!consumers_before.is_empty());

        // Remove a consumer of G10 and check the table tracked it.
        let victim = consumers_before[0];
        let victim_inputs = nl.gate(victim).inputs().to_vec();
        nl.remove_gate(victim);
        for &inp in &victim_inputs {
            assert!(
                !nl.fanout().consumers(inp).contains(&victim),
                "detached from {inp}"
            );
        }
        // The maintained table matches a from-scratch rebuild.
        let fresh = FanoutTable::build(&nl);
        for (id, _) in nl.nets() {
            assert_eq!(nl.fanout().consumers(id), fresh.consumers(id));
        }
        let _ = driver;
    }

    #[test]
    fn generation_bumps_on_every_edit() {
        let mut nl = Netlist::new("g");
        let g0 = nl.generation();
        let a = nl.add_input("a").unwrap();
        assert!(nl.generation() > g0);
        let y = nl.add_net("y").unwrap();
        let g1 = nl.generation();
        let gid = nl.add_gate(GateKind::Buf, &[a], y).unwrap();
        assert!(nl.generation() > g1);
        let g2 = nl.generation();
        nl.mark_output(y);
        assert!(nl.generation() > g2);
        let g3 = nl.generation();
        nl.set_gate_kind(gid, GateKind::Not).unwrap();
        assert!(nl.generation() > g3);
    }

    #[test]
    fn levels_match_depth() {
        let nl = c17();
        let levels = nl.levels().unwrap();
        assert_eq!(levels.depth(), nl.depth().unwrap());
        let g22 = nl.net_id("G22").unwrap();
        assert_eq!(levels.level(g22), 3);
        let g1 = nl.net_id("G1").unwrap();
        assert_eq!(levels.level(g1), 0);
    }

    #[test]
    fn structural_hash_ignores_gate_order_and_design_name() {
        let nl = c17();
        // Rebuild the same circuit with gates declared in reverse order.
        let mut rev = Netlist::new("c17_reversed");
        for &i in nl.inputs() {
            rev.add_input(nl.net(i).name().to_string()).unwrap();
        }
        let mut gates: Vec<_> = nl.gates().map(|(_, g)| g.clone()).collect();
        gates.reverse();
        for g in &gates {
            if rev.net_id(nl.net(g.output()).name()).is_none() {
                rev.add_net(nl.net(g.output()).name().to_string()).unwrap();
            }
        }
        for g in &gates {
            let inputs: Vec<NetId> = g
                .inputs()
                .iter()
                .map(|&n| rev.net_id(nl.net(n).name()).unwrap())
                .collect();
            let out = rev.net_id(nl.net(g.output()).name()).unwrap();
            rev.add_gate(g.kind(), &inputs, out).unwrap();
        }
        for &o in nl.outputs() {
            let id = rev.net_id(nl.net(o).name()).unwrap();
            rev.mark_output(id);
        }
        assert_eq!(nl.structural_hash(), rev.structural_hash());
    }

    #[test]
    fn structural_hash_sees_function_changes() {
        let mut nl = c17();
        let before = nl.structural_hash();
        let (gid, _) = nl.gates().next().unwrap();
        let kind = nl.gate(gid).kind();
        let new_kind = if kind == GateKind::Nand {
            GateKind::Nor
        } else {
            GateKind::Nand
        };
        nl.set_gate_kind(gid, new_kind).unwrap();
        assert_ne!(nl.structural_hash(), before);
    }

    #[test]
    fn key_analysis_cones_and_support() {
        let mut nl = Netlist::new("k");
        let a = nl.add_input("a").unwrap();
        let k0 = nl.add_key_input("k0").unwrap();
        let k1 = nl.add_key_input("k1").unwrap();
        let t = nl.add_net("t").unwrap();
        let y0 = nl.add_net("y0").unwrap();
        let y1 = nl.add_net("y1").unwrap();
        let gt = nl.add_gate(GateKind::Xor, &[a, k0], t).unwrap();
        let gy0 = nl.add_gate(GateKind::And, &[t, a], y0).unwrap();
        let gy1 = nl.add_gate(GateKind::Or, &[a, k1], y1).unwrap();
        nl.mark_output(y0);
        nl.mark_output(y1);
        let keys = nl.key_analysis();
        assert_eq!(keys.key_bits(), 2);
        assert_eq!(keys.cone(0), &[gt, gy0]);
        assert_eq!(keys.cone(1), &[gy1]);
        let _ = k1;
    }

    #[test]
    fn cache_entries_survive_irrelevant_edits() {
        let mut nl = c17();
        let _ = nl.topo_order().unwrap();
        assert!(nl.analysis().has_topo());
        // Adding a dangling net cannot change the gate order.
        nl.add_net("spare").unwrap();
        assert!(nl.analysis().has_topo());
        // Removing a gate can.
        let (gid, _) = nl.gates().next().unwrap();
        nl.remove_gate(gid);
        assert!(!nl.analysis().has_topo());
    }

    #[test]
    fn clone_carries_cache_but_not_aliasing() {
        let mut nl = c17();
        let _ = nl.fanout();
        let clone = nl.clone();
        assert!(clone.analysis().has_fanout());
        // Editing the original must not disturb the clone's view.
        let (gid, _) = nl.gates().next().unwrap();
        nl.remove_gate(gid);
        let fresh = FanoutTable::build(&clone);
        for (id, _) in clone.nets() {
            assert_eq!(clone.fanout().consumers(id), fresh.consumers(id));
        }
    }
}
