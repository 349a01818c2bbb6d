//! Synthetic benchmark circuit generators.
//!
//! The paper evaluates on ISCAS-85 (`c7552`), ISCAS-89/ITC-99 (`s35932`,
//! `s38584`, `b15`, `b20`) and MIT-LL CEP cores (`AES`, `SHA-256`, `MD5`,
//! `GPS`). Those netlists are not redistributable here, so this module
//! generates *functionally real* hosts with matching structural profiles:
//! arithmetic (ripple adders, array multipliers, comparators), wide parity
//! planes, SPN cipher rounds (PRESENT-style 4-bit S-boxes + bit
//! permutation), genuine SHA-256 message-schedule/compression steps, MD5
//! rounds and GPS C/A-code LFSRs. SAT-attack hardness of RIL-Blocks is
//! carried by the inserted key logic, so hosts only need realistic size,
//! depth and fan-out — which these provide (see DESIGN.md §2).
//!
//! Every generator is deterministic: the same parameters always produce the
//! same netlist.

use crate::gate::GateKind;
use crate::netlist::{NetId, Netlist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Word-level construction helpers
// ---------------------------------------------------------------------------

/// Returns the constant-`bit` net, creating the CONST gate on first use.
pub fn const_net(nl: &mut Netlist, bit: bool) -> NetId {
    let name = if bit { "const1$" } else { "const0$" };
    if let Some(id) = nl.net_id(name) {
        return id;
    }
    let id = nl.add_net(name).expect("const net name free");
    let kind = if bit {
        GateKind::Const1
    } else {
        GateKind::Const0
    };
    nl.add_gate(kind, &[], id).expect("const gate");
    id
}

fn g2(nl: &mut Netlist, kind: GateKind, a: NetId, b: NetId) -> NetId {
    nl.add_gate_fresh(kind, &[a, b], "w").expect("fresh gate")
}

fn g1(nl: &mut Netlist, kind: GateKind, a: NetId) -> NetId {
    nl.add_gate_fresh(kind, &[a], "w").expect("fresh gate")
}

/// Bitwise XOR of two equal-width words.
pub fn word_xor(nl: &mut Netlist, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| g2(nl, GateKind::Xor, x, y))
        .collect()
}

/// Bitwise AND of two equal-width words.
pub fn word_and(nl: &mut Netlist, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| g2(nl, GateKind::And, x, y))
        .collect()
}

/// Bitwise OR of two equal-width words.
pub fn word_or(nl: &mut Netlist, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| g2(nl, GateKind::Or, x, y))
        .collect()
}

/// Bitwise NOT of a word.
pub fn word_not(nl: &mut Netlist, a: &[NetId]) -> Vec<NetId> {
    a.iter().map(|&x| g1(nl, GateKind::Not, x)).collect()
}

/// One-bit full adder; returns `(sum, carry_out)`.
pub fn full_adder(nl: &mut Netlist, a: NetId, b: NetId, cin: NetId) -> (NetId, NetId) {
    let axb = g2(nl, GateKind::Xor, a, b);
    let s = g2(nl, GateKind::Xor, axb, cin);
    let c1 = g2(nl, GateKind::And, a, b);
    let c2 = g2(nl, GateKind::And, axb, cin);
    let cout = g2(nl, GateKind::Or, c1, c2);
    (s, cout)
}

/// Ripple-carry addition of two equal-width words (LSB first); returns
/// `(sum, carry_out)`.
pub fn word_add(nl: &mut Netlist, a: &[NetId], b: &[NetId]) -> (Vec<NetId>, NetId) {
    assert_eq!(a.len(), b.len());
    let mut carry = const_net(nl, false);
    let mut sum = Vec::with_capacity(a.len());
    for (&x, &y) in a.iter().zip(b) {
        let (s, c) = full_adder(nl, x, y, carry);
        sum.push(s);
        carry = c;
    }
    (sum, carry)
}

/// Right-rotate a word by `k` positions (wiring only). Words are LSB-first,
/// so `rotr` moves bit `k` to position 0.
pub fn rotr(a: &[NetId], k: usize) -> Vec<NetId> {
    let n = a.len();
    (0..n).map(|i| a[(i + k) % n]).collect()
}

/// Logical right shift by `k` (zero-filled MSBs).
pub fn shr(nl: &mut Netlist, a: &[NetId], k: usize) -> Vec<NetId> {
    let zero = const_net(nl, false);
    let n = a.len();
    (0..n)
        .map(|i| if i + k < n { a[i + k] } else { zero })
        .collect()
}

/// Per-bit 2:1 word multiplexer: `s = 0` selects `a`.
pub fn word_mux(nl: &mut Netlist, s: NetId, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            nl.add_gate_fresh(GateKind::Mux, &[s, x, y], "m")
                .expect("mux")
        })
        .collect()
}

/// Unsigned less-than comparison (`a < b`), LSB-first words.
pub fn word_lt(nl: &mut Netlist, a: &[NetId], b: &[NetId]) -> NetId {
    assert_eq!(a.len(), b.len());
    let mut lt = const_net(nl, false);
    for (&x, &y) in a.iter().zip(b) {
        // lt = (!x & y) | ((x XNOR y) & lt)
        let nx = g1(nl, GateKind::Not, x);
        let strictly = g2(nl, GateKind::And, nx, y);
        let eq = g2(nl, GateKind::Xnor, x, y);
        let keep = g2(nl, GateKind::And, eq, lt);
        lt = g2(nl, GateKind::Or, strictly, keep);
    }
    lt
}

/// XOR-reduction (parity) tree over a slice of nets.
pub fn parity_tree(nl: &mut Netlist, nets: &[NetId]) -> NetId {
    assert!(!nets.is_empty());
    let mut layer: Vec<NetId> = nets.to_vec();
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for chunk in layer.chunks(2) {
            next.push(if chunk.len() == 2 {
                g2(nl, GateKind::Xor, chunk[0], chunk[1])
            } else {
                chunk[0]
            });
        }
        layer = next;
    }
    layer[0]
}

/// Adds a named input word (`{name}[0]`..`{name}[width-1]`, LSB first).
pub fn input_word(nl: &mut Netlist, name: &str, width: usize) -> Vec<NetId> {
    (0..width)
        .map(|i| nl.add_input(format!("{name}[{i}]")).expect("unique input"))
        .collect()
}

/// Marks each bit of a word as a primary output, renaming is not performed.
pub fn output_word(nl: &mut Netlist, word: &[NetId]) {
    for &b in word {
        nl.mark_output(b);
    }
}

/// A 4-bit S-box realized as two-level minterm logic from its table.
/// `x` is LSB-first; returns the LSB-first output nibble.
pub fn nibble_sbox(nl: &mut Netlist, x: &[NetId], table: &[u8; 16]) -> Vec<NetId> {
    assert_eq!(x.len(), 4);
    let nots: Vec<NetId> = x.iter().map(|&b| g1(nl, GateKind::Not, b)).collect();
    // Build the 16 minterms once and share them across output bits.
    let minterms: Vec<NetId> = (0..16u8)
        .map(|m| {
            let lits: Vec<NetId> = (0..4)
                .map(|i| if (m >> i) & 1 == 1 { x[i] } else { nots[i] })
                .collect();
            nl.add_gate_fresh(GateKind::And, &lits, "mt")
                .expect("minterm")
        })
        .collect();
    (0..4)
        .map(|bit| {
            let ones: Vec<NetId> = (0..16)
                .filter(|&m| (table[m] >> bit) & 1 == 1)
                .map(|m| minterms[m])
                .collect();
            match ones.len() {
                0 => const_net(nl, false),
                1 => ones[0],
                _ => nl
                    .add_gate_fresh(GateKind::Or, &ones, "sb")
                    .expect("sbox or"),
            }
        })
        .collect()
}

/// The PRESENT cipher S-box.
pub const PRESENT_SBOX: [u8; 16] = [
    0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD, 0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2,
];

// ---------------------------------------------------------------------------
// Complete benchmark circuits
// ---------------------------------------------------------------------------

/// An `n`-bit ripple-carry adder benchmark: inputs `a`, `b`, output `s` and
/// carry.
pub fn adder(n: usize) -> Netlist {
    let mut nl = Netlist::new(format!("adder{n}"));
    let a = input_word(&mut nl, "a", n);
    let b = input_word(&mut nl, "b", n);
    let (s, c) = word_add(&mut nl, &a, &b);
    output_word(&mut nl, &s);
    nl.mark_output(c);
    nl
}

/// An `n × n` unsigned array multiplier benchmark.
pub fn multiplier(n: usize) -> Netlist {
    let mut nl = Netlist::new(format!("mult{n}x{n}"));
    let a = input_word(&mut nl, "a", n);
    let b = input_word(&mut nl, "b", n);
    let zero = const_net(&mut nl, false);
    // Partial-product accumulation, row by row.
    let mut acc: Vec<NetId> = vec![zero; 2 * n];
    for (j, &bj) in b.iter().enumerate() {
        let mut row: Vec<NetId> = vec![zero; 2 * n];
        for (i, &ai) in a.iter().enumerate() {
            row[i + j] = g2(&mut nl, GateKind::And, ai, bj);
        }
        let (sum, _) = word_add(&mut nl, &acc, &row);
        acc = sum;
    }
    output_word(&mut nl, &acc);
    nl
}

/// An `n`-bit magnitude comparator benchmark (`lt`, `eq`, `gt` outputs).
pub fn comparator(n: usize) -> Netlist {
    let mut nl = Netlist::new(format!("cmp{n}"));
    let a = input_word(&mut nl, "a", n);
    let b = input_word(&mut nl, "b", n);
    let lt = word_lt(&mut nl, &a, &b);
    let gt = word_lt(&mut nl, &b, &a);
    let nor = g2(&mut nl, GateKind::Nor, lt, gt);
    nl.mark_output(lt);
    nl.mark_output(nor); // eq
    nl.mark_output(gt);
    nl
}

/// A small ALU slice used by the processor-like hosts: op ∈ {add, and, or,
/// xor} selected by two control bits.
fn alu(nl: &mut Netlist, a: &[NetId], b: &[NetId], op0: NetId, op1: NetId) -> Vec<NetId> {
    let (sum, _) = word_add(nl, a, b);
    let and = word_and(nl, a, b);
    let or = word_or(nl, a, b);
    let xor = word_xor(nl, a, b);
    let lo = word_mux(nl, op0, &sum, &and);
    let hi = word_mux(nl, op0, &or, &xor);
    word_mux(nl, op1, &lo, &hi)
}

/// `c7552`-like host: the real c7552 is a 34-bit adder/magnitude comparator
/// with parity checking (3.5 k gates, 207 PI, 108 PO) — notably it contains
/// **no multiplier**, so its SAT instances sensitize easily. This host is
/// faithful to that profile: a bank of `width`-bit ripple adders, two
/// magnitude comparators, XOR mixing planes, a comparator-steered MUX
/// layer and bus-parity checkers. `c7552_like(32)` lands near 2 k gates
/// with a c7552-like PI/PO profile.
pub fn c7552_like(width: usize) -> Netlist {
    let mut nl = Netlist::new("c7552_like");
    let a = input_word(&mut nl, "a", width);
    let b = input_word(&mut nl, "b", width);
    let c = input_word(&mut nl, "c", width);
    let d = input_word(&mut nl, "d", width);
    // Adder bank (the 34-bit adder core of the real circuit).
    let (s1, c1) = word_add(&mut nl, &a, &b);
    let (s2, c2) = word_add(&mut nl, &c, &d);
    let (s3, c3) = word_add(&mut nl, &s1, &s2);
    // Magnitude comparators.
    let lt_ab = word_lt(&mut nl, &a, &b);
    let lt_s = word_lt(&mut nl, &s1, &s2);
    // XOR mixing planes (bus checksum logic).
    let ra = rotr(&a, 7);
    let rd = rotr(&d, 13);
    let m1 = word_xor(&mut nl, &s3, &ra);
    let mix = word_xor(&mut nl, &m1, &rd);
    let bc = word_xor(&mut nl, &b, &c);
    let (s4, c4) = word_add(&mut nl, &mix, &bc);
    // Comparator-steered MUX layer.
    let sel_out = word_mux(&mut nl, lt_s, &s3, &mix);
    // Parity checkers over every bus.
    let p1 = parity_tree(&mut nl, &s3);
    let p2 = parity_tree(&mut nl, &mix);
    let p3 = parity_tree(&mut nl, &s4);
    let p4 = parity_tree(&mut nl, &sel_out);
    output_word(&mut nl, &s3);
    output_word(&mut nl, &s4);
    output_word(&mut nl, &sel_out);
    for net in [c1, c2, c3, c4, lt_ab, lt_s, p1, p2, p3, p4] {
        nl.mark_output(net);
    }
    nl
}

/// `b15`-like host (ITC-99 b15 is a Viper processor subset): one ALU with an
/// operand-forwarding mux network and flag logic, unrolled `stages` times.
pub fn b15_like(width: usize, stages: usize) -> Netlist {
    let mut nl = Netlist::new("b15_like");
    let mut r0 = input_word(&mut nl, "r0", width);
    let r1 = input_word(&mut nl, "r1", width);
    for s in 0..stages {
        let op0 = nl.add_input(format!("op0_{s}")).expect("unique");
        let op1 = nl.add_input(format!("op1_{s}")).expect("unique");
        let fwd = nl.add_input(format!("fwd_{s}")).expect("unique");
        let operand = word_mux(&mut nl, fwd, &r1, &r0);
        let res = alu(&mut nl, &r0, &operand, op0, op1);
        // Flag logic: zero flag via NOR-reduction, parity flag.
        let z = nl
            .add_gate_fresh(GateKind::Nor, &res, "zf")
            .expect("zero flag");
        let p = parity_tree(&mut nl, &res);
        nl.mark_output(z);
        nl.mark_output(p);
        r0 = res;
    }
    output_word(&mut nl, &r0);
    nl
}

/// `b20`-like host (ITC-99 b20 is two b15-class processors plus glue): two
/// ALU pipelines cross-coupled through a comparator.
pub fn b20_like(width: usize, stages: usize) -> Netlist {
    let mut nl = Netlist::new("b20_like");
    let mut p0 = input_word(&mut nl, "p0", width);
    let mut p1 = input_word(&mut nl, "p1", width);
    for s in 0..stages {
        let op0 = nl.add_input(format!("opa_{s}")).expect("unique");
        let op1 = nl.add_input(format!("opb_{s}")).expect("unique");
        let a = alu(&mut nl, &p0, &p1, op0, op1);
        let b = alu(&mut nl, &p1, &p0, op1, op0);
        let swap = word_lt(&mut nl, &a, &b);
        let n0 = word_mux(&mut nl, swap, &a, &b);
        let n1 = word_mux(&mut nl, swap, &b, &a);
        p0 = n0;
        p1 = n1;
    }
    output_word(&mut nl, &p0);
    output_word(&mut nl, &p1);
    nl
}

/// `s35932`-like host: the real s35932 is a wide, shallow array of identical
/// slices. Generates `slices` parallel slices of AND/XOR/parity logic.
pub fn s35932_like(slices: usize) -> Netlist {
    let mut nl = Netlist::new("s35932_like");
    for s in 0..slices {
        let a = input_word(&mut nl, &format!("a{s}"), 8);
        let b = input_word(&mut nl, &format!("b{s}"), 8);
        let x = word_xor(&mut nl, &a, &b);
        let m = word_and(&mut nl, &a, &x);
        let o = word_or(&mut nl, &m, &b);
        let p = parity_tree(&mut nl, &o);
        output_word(&mut nl, &o);
        nl.mark_output(p);
    }
    nl
}

/// `s38584`-like host: mixed arithmetic/control slices.
pub fn s38584_like(slices: usize) -> Netlist {
    let mut nl = Netlist::new("s38584_like");
    for s in 0..slices {
        let a = input_word(&mut nl, &format!("a{s}"), 8);
        let b = input_word(&mut nl, &format!("b{s}"), 8);
        let sel = nl.add_input(format!("sel{s}")).expect("unique");
        let (sum, c) = word_add(&mut nl, &a, &b);
        let x = word_xor(&mut nl, &a, &b);
        let out = word_mux(&mut nl, sel, &sum, &x);
        output_word(&mut nl, &out);
        nl.mark_output(c);
    }
    nl
}

/// PRESENT-style SPN cipher: 64-bit state, 64-bit cipher key (as data
/// inputs), `rounds` rounds of AddRoundKey → 16 × 4-bit S-box → P-layer.
/// Stands in for the CEP AES core (see DESIGN.md §2).
pub fn spn_cipher(rounds: usize) -> Netlist {
    let mut nl = Netlist::new("aes_like_spn");
    let pt = input_word(&mut nl, "pt", 64);
    let key = input_word(&mut nl, "key", 64);
    let mut state = pt;
    for r in 0..rounds {
        // Round key: the cipher key rotated by 7*r bits (cheap schedule).
        let rk = rotr(&key, (7 * r) % 64);
        state = word_xor(&mut nl, &state, &rk);
        // S-box layer.
        let mut subbed = Vec::with_capacity(64);
        for nib in 0..16 {
            let x = &state[nib * 4..nib * 4 + 4];
            subbed.extend(nibble_sbox(&mut nl, x, &PRESENT_SBOX));
        }
        // PRESENT P-layer: bit i of the new state comes from P^{-1}; the
        // forward map sends bit i to 16*i mod 63 (63 fixed).
        let mut permuted = vec![subbed[63]; 64];
        for (i, &bit) in subbed.iter().enumerate() {
            let dst = if i == 63 { 63 } else { (16 * i) % 63 };
            permuted[dst] = bit;
        }
        state = permuted;
    }
    output_word(&mut nl, &state);
    nl
}

/// Alias for [`spn_cipher`] at the CEP-AES stand-in's default depth.
pub fn aes_like(rounds: usize) -> Netlist {
    let mut nl = spn_cipher(rounds);
    nl.set_name("aes_like");
    nl
}

/// SHA-256-like host: genuine SHA-256 message schedule (σ0/σ1) and
/// compression steps (Ch, Maj, Σ0, Σ1, 32-bit modular adds) for `steps`
/// rounds over a 16-word message block input.
pub fn sha256_like(steps: usize) -> Netlist {
    let mut nl = Netlist::new("sha256_like");
    let mut w: Vec<Vec<NetId>> = (0..16)
        .map(|i| input_word(&mut nl, &format!("w{i}"), 32))
        .collect();
    // Initial working variables from the SHA-256 IV constants.
    let iv: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut vars: Vec<Vec<NetId>> = iv
        .iter()
        .map(|&c| {
            (0..32)
                .map(|i| const_net(&mut nl, (c >> i) & 1 == 1))
                .collect()
        })
        .collect();
    let k: [u32; 8] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x39f56c25, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5,
    ];
    for t in 0..steps {
        if t >= 16 {
            // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]
            let s1 = {
                let a = rotr(&w[t - 2], 17);
                let b = rotr(&w[t - 2], 19);
                let c = shr(&mut nl, &w[t - 2], 10);
                let ab = word_xor(&mut nl, &a, &b);
                word_xor(&mut nl, &ab, &c)
            };
            let s0 = {
                let a = rotr(&w[t - 15], 7);
                let b = rotr(&w[t - 15], 18);
                let c = shr(&mut nl, &w[t - 15], 3);
                let ab = word_xor(&mut nl, &a, &b);
                word_xor(&mut nl, &ab, &c)
            };
            let (t1, _) = word_add(&mut nl, &s1, &w[t - 7]);
            let (t2, _) = word_add(&mut nl, &t1, &s0);
            let (wt, _) = word_add(&mut nl, &t2, &w[t - 16]);
            w.push(wt);
        }
        let wt = w[t].clone();
        let (a, b, c, d, e, f, g, h) = (
            vars[0].clone(),
            vars[1].clone(),
            vars[2].clone(),
            vars[3].clone(),
            vars[4].clone(),
            vars[5].clone(),
            vars[6].clone(),
            vars[7].clone(),
        );
        let sig1 = {
            let x = rotr(&e, 6);
            let y = rotr(&e, 11);
            let z = rotr(&e, 25);
            let xy = word_xor(&mut nl, &x, &y);
            word_xor(&mut nl, &xy, &z)
        };
        let ch = {
            let ef = word_and(&mut nl, &e, &f);
            let ne = word_not(&mut nl, &e);
            let ng = word_and(&mut nl, &ne, &g);
            word_xor(&mut nl, &ef, &ng)
        };
        let kt: Vec<NetId> = (0..32)
            .map(|i| const_net(&mut nl, (k[t % 8] >> i) & 1 == 1))
            .collect();
        let (t1a, _) = word_add(&mut nl, &h, &sig1);
        let (t1b, _) = word_add(&mut nl, &t1a, &ch);
        let (t1c, _) = word_add(&mut nl, &t1b, &kt);
        let (t1, _) = word_add(&mut nl, &t1c, &wt);
        let sig0 = {
            let x = rotr(&a, 2);
            let y = rotr(&a, 13);
            let z = rotr(&a, 22);
            let xy = word_xor(&mut nl, &x, &y);
            word_xor(&mut nl, &xy, &z)
        };
        let maj = {
            let ab = word_and(&mut nl, &a, &b);
            let ac = word_and(&mut nl, &a, &c);
            let bc = word_and(&mut nl, &b, &c);
            let x = word_xor(&mut nl, &ab, &ac);
            word_xor(&mut nl, &x, &bc)
        };
        let (t2, _) = word_add(&mut nl, &sig0, &maj);
        let (new_e, _) = word_add(&mut nl, &d, &t1);
        let (new_a, _) = word_add(&mut nl, &t1, &t2);
        vars = vec![new_a, a, b, c, new_e, e, f, g];
    }
    // Buffer each state bit: with few rounds some variables are still the
    // shared IV-constant nets, and outputs must be distinct.
    for v in &vars {
        for &bit in v {
            let o = nl.add_gate_fresh(GateKind::Buf, &[bit], "h").expect("buf");
            nl.mark_output(o);
        }
    }
    nl
}

/// MD5-like host: genuine MD5 F-function steps (`F = (b & c) | (!b & d)`,
/// 32-bit adds, fixed rotations) over a 4-word IV input and `steps` message
/// words.
pub fn md5_like(steps: usize) -> Netlist {
    let mut nl = Netlist::new("md5_like");
    let mut a = input_word(&mut nl, "iv_a", 32);
    let mut b = input_word(&mut nl, "iv_b", 32);
    let mut c = input_word(&mut nl, "iv_c", 32);
    let mut d = input_word(&mut nl, "iv_d", 32);
    const S: [usize; 4] = [7, 12, 17, 22];
    for t in 0..steps {
        let m = input_word(&mut nl, &format!("m{t}"), 32);
        let f = {
            let bc = word_and(&mut nl, &b, &c);
            let nb = word_not(&mut nl, &b);
            let nbd = word_and(&mut nl, &nb, &d);
            word_or(&mut nl, &bc, &nbd)
        };
        let (s1, _) = word_add(&mut nl, &a, &f);
        let (s2, _) = word_add(&mut nl, &s1, &m);
        // Left-rotate by S[t % 4] == right-rotate by 32 - S.
        let rot = rotr(&s2, 32 - S[t % 4]);
        let (nb, _) = word_add(&mut nl, &b, &rot);
        let (na, nb2, nc, nd) = (d.clone(), nb, b.clone(), c.clone());
        a = na;
        b = nb2;
        c = nc;
        d = nd;
    }
    output_word(&mut nl, &a);
    output_word(&mut nl, &b);
    output_word(&mut nl, &c);
    output_word(&mut nl, &d);
    nl
}

/// GPS C/A-code-like host: the two 10-bit Gold-code LFSRs (G1:
/// x^10+x^3+1, G2: x^10+x^9+x^8+x^6+x^3+x^2+1) unrolled for `chips` steps,
/// with the C/A chip output `G1[9] ^ G2[t2] ^ G2[t6]` per step.
pub fn gps_ca_like(chips: usize) -> Netlist {
    let mut nl = Netlist::new("gps_like");
    let mut g1 = input_word(&mut nl, "g1", 10);
    let mut g2 = input_word(&mut nl, "g2", 10);
    for _ in 0..chips {
        // C/A chip: G1 output xor a phase-select tap pair of G2.
        let tap = g2_tap(&mut nl, &g2);
        let chip = g2c(&mut nl, g1[9], tap);
        nl.mark_output(chip);
        // G1 feedback: bits 2 and 9 (x^10 + x^3 + 1).
        let f1 = g2c(&mut nl, g1[2], g1[9]);
        // G2 feedback: bits 1,2,5,7,8,9.
        let mut f2 = g2c(&mut nl, g2[1], g2[2]);
        for &i in &[5, 7, 8, 9] {
            f2 = g2c(&mut nl, f2, g2[i]);
        }
        g1 = shift_in(&g1, f1);
        g2 = shift_in(&g2, f2);
    }
    nl
}

fn g2c(nl: &mut Netlist, a: NetId, b: NetId) -> NetId {
    g2(nl, GateKind::Xor, a, b)
}

fn g2_tap(nl: &mut Netlist, g2reg: &[NetId]) -> NetId {
    // PRN 1 phase selection: taps 2 and 6.
    g2c(nl, g2reg[1], g2reg[5])
}

fn shift_in(reg: &[NetId], fb: NetId) -> Vec<NetId> {
    let mut next = Vec::with_capacity(reg.len());
    next.push(fb);
    next.extend_from_slice(&reg[..reg.len() - 1]);
    next
}

/// A sequential benchmark: an `n`-bit Fibonacci LFSR with XOR taps and a
/// parallel `n`-bit accumulator register, as real DFF-based state. Use
/// [`crate::Netlist::to_combinational`] for the full-scan combinational
/// view the locking/attack flows expect.
pub fn sequential_lfsr(n: usize, taps: &[usize]) -> Netlist {
    assert!(n >= 2, "LFSR needs at least 2 bits");
    assert!(taps.iter().all(|&t| t < n), "taps out of range");
    let mut nl = Netlist::new(format!("lfsr{n}"));
    let din = input_word(&mut nl, "din", n);
    // State registers.
    let state: Vec<NetId> = (0..n)
        .map(|i| nl.add_net(format!("q{i}")).expect("unique"))
        .collect();
    // Feedback = XOR of tap bits.
    let tap_nets: Vec<NetId> = taps.iter().map(|&t| state[t]).collect();
    let fb = if tap_nets.len() == 1 {
        nl.add_gate_fresh(GateKind::Buf, &[tap_nets[0]], "fb")
            .expect("buf")
    } else {
        nl.add_gate_fresh(GateKind::Xor, &tap_nets, "fb")
            .expect("xor")
    };
    // Next state: shift in feedback xor external data.
    let mut next = Vec::with_capacity(n);
    let first = g2(&mut nl, GateKind::Xor, fb, din[0]);
    next.push(first);
    for i in 1..n {
        next.push(g2(&mut nl, GateKind::Xor, state[i - 1], din[i]));
    }
    for i in 0..n {
        nl.add_gate(GateKind::Dff, &[next[i]], state[i])
            .expect("dff");
    }
    // Observable outputs: the state and a parity check.
    output_word(&mut nl, &state);
    let p = parity_tree(&mut nl, &state);
    nl.mark_output(p);
    nl
}

/// A random acyclic circuit for fuzzing and property tests: `n_gates`
/// random 1–2 input gates over `n_inputs` PIs, with the last `n_outputs`
/// gate outputs marked as POs. Deterministic in `seed`.
pub fn random_circuit(seed: u64, n_inputs: usize, n_gates: usize, n_outputs: usize) -> Netlist {
    assert!(n_inputs >= 1 && n_gates >= n_outputs && n_outputs >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nl = Netlist::new(format!("rand_{seed}"));
    let mut nets: Vec<NetId> = (0..n_inputs)
        .map(|i| nl.add_input(format!("in{i}")).expect("unique"))
        .collect();
    let kinds = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
    ];
    let mut outs: Vec<NetId> = Vec::new();
    for _ in 0..n_gates {
        let kind = kinds[rng.gen_range(0..kinds.len())];
        let arity = kind.arity().unwrap_or(2);
        let inputs: Vec<NetId> = (0..arity)
            .map(|_| nets[rng.gen_range(0..nets.len())])
            .collect();
        let out = nl.add_gate_fresh(kind, &inputs, "g").expect("gate");
        nets.push(out);
        outs.push(out);
    }
    for &o in &outs[outs.len() - n_outputs..] {
        nl.mark_output(o);
    }
    nl
}

/// Looks up a benchmark by the paper's name at a default (scaled-down, see
/// DESIGN.md §5) size. Names are case-insensitive: `c7552`, `b15`,
/// `s35932`, `s38584`, `b20`, `aes`, `sha256`, `md5`, `gps`, `c17`.
///
/// # Examples
///
/// ```
/// let nl = ril_netlist::generators::benchmark("c7552").expect("known benchmark");
/// assert!(nl.gate_count() > 500);
/// ```
pub fn benchmark(name: &str) -> Option<Netlist> {
    Some(match name.to_ascii_lowercase().as_str() {
        "c17" => crate::bench::c17(),
        "c7552" => c7552_like(32),
        "b15" => b15_like(16, 6),
        "s35932" => s35932_like(48),
        "s38584" => s38584_like(40),
        "b20" => b20_like(16, 5),
        "aes" => aes_like(3),
        "sha256" | "sha-256" => sha256_like(4),
        "md5" => md5_like(6),
        "gps" => gps_ca_like(64),
        _ => return None,
    })
}

/// Resolves a host name: a [`benchmark`] name, or `adder:N` /
/// `multiplier:N` for an N-bit [`adder`] / [`multiplier`].
///
/// # Errors
///
/// Returns a message for an unknown benchmark or a malformed width.
pub fn by_name(name: &str) -> Result<Netlist, String> {
    if let Some(n) = name.strip_prefix("adder:") {
        let bits: usize = n.parse().map_err(|_| format!("bad adder width `{n}`"))?;
        return Ok(adder(bits));
    }
    if let Some(n) = name.strip_prefix("multiplier:") {
        let bits: usize = n
            .parse()
            .map_err(|_| format!("bad multiplier width `{n}`"))?;
        return Ok(multiplier(bits));
    }
    benchmark(name).ok_or_else(|| format!("unknown benchmark `{name}`"))
}

/// All benchmark names accepted by [`benchmark`], in the paper's table
/// order.
#[cfg(test)]
const BENCHMARK_NAMES: [&str; 9] = [
    "c7552", "b15", "s35932", "s38584", "b20", "aes", "sha256", "md5", "gps",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::CompiledSim;

    fn eval_u64(nl: &Netlist, words: &[(String, u64, usize)]) -> Vec<bool> {
        // Assign each named word's bits to inputs, eval single pattern.
        let mut sim = CompiledSim::new(nl).unwrap();
        let mut bits = vec![false; nl.inputs().len()];
        for (pos, &inp) in nl.inputs().iter().enumerate() {
            let name = nl.net(inp).name();
            for (prefix, value, width) in words {
                for i in 0..*width {
                    if name == format!("{prefix}[{i}]") {
                        bits[pos] = (value >> i) & 1 == 1;
                    }
                }
            }
        }
        sim.eval_bits(&bits)
    }

    #[test]
    fn adder_adds() {
        let nl = adder(8);
        nl.validate().unwrap();
        for (a, b) in [(3u64, 5u64), (200, 100), (255, 1), (0, 0)] {
            let outs = eval_u64(&nl, &[("a".into(), a, 8), ("b".into(), b, 8)]);
            let mut sum = 0u64;
            for (i, &bit) in outs.iter().take(8).enumerate() {
                sum |= (bit as u64) << i;
            }
            let carry = outs[8] as u64;
            assert_eq!(sum | (carry << 8), a + b, "a={a} b={b}");
        }
    }

    #[test]
    fn multiplier_multiplies() {
        let nl = multiplier(4);
        nl.validate().unwrap();
        for (a, b) in [(3u64, 5u64), (15, 15), (7, 0), (9, 11)] {
            let outs = eval_u64(&nl, &[("a".into(), a, 4), ("b".into(), b, 4)]);
            let mut prod = 0u64;
            for (i, &bit) in outs.iter().take(8).enumerate() {
                prod |= (bit as u64) << i;
            }
            assert_eq!(prod, a * b, "a={a} b={b}");
        }
    }

    #[test]
    fn comparator_compares() {
        let nl = comparator(6);
        nl.validate().unwrap();
        for (a, b) in [(3u64, 5u64), (5, 3), (9, 9)] {
            let outs = eval_u64(&nl, &[("a".into(), a, 6), ("b".into(), b, 6)]);
            assert_eq!(outs[0], a < b);
            assert_eq!(outs[1], a == b);
            assert_eq!(outs[2], a > b);
        }
    }

    #[test]
    fn sbox_matches_table() {
        let mut nl = Netlist::new("sbox");
        let x = input_word(&mut nl, "x", 4);
        let y = nibble_sbox(&mut nl, &x, &PRESENT_SBOX);
        output_word(&mut nl, &y);
        nl.validate().unwrap();
        for v in 0u64..16 {
            let outs = eval_u64(&nl, &[("x".into(), v, 4)]);
            let mut got = 0u8;
            for (i, &b) in outs.iter().enumerate() {
                got |= (b as u8) << i;
            }
            assert_eq!(got, PRESENT_SBOX[v as usize], "x={v}");
        }
    }

    #[test]
    fn all_benchmarks_validate() {
        for name in BENCHMARK_NAMES {
            let nl = benchmark(name).unwrap();
            nl.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(nl.gate_count() > 100, "{name} too small");
            assert!(!nl.outputs().is_empty(), "{name} has no outputs");
        }
        assert!(benchmark("nonexistent").is_none());
    }

    #[test]
    fn benchmarks_are_deterministic() {
        let a = crate::bench::write_bench(&benchmark("aes").unwrap());
        let b = crate::bench::write_bench(&benchmark("aes").unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn spn_cipher_diffuses() {
        // Flipping one plaintext bit should change many state bits after
        // 3 rounds (avalanche).
        let nl = spn_cipher(3);
        let mut sim = CompiledSim::new(&nl).unwrap();
        let mut bits = vec![false; nl.inputs().len()];
        let base = sim.eval_bits(&bits);
        bits[0] = true;
        let flipped = sim.eval_bits(&bits);
        let diff = base.iter().zip(&flipped).filter(|(a, b)| a != b).count();
        assert!(diff >= 8, "only {diff} output bits changed");
    }

    #[test]
    fn random_circuit_is_deterministic_and_valid() {
        let a = random_circuit(7, 8, 50, 4);
        let b = random_circuit(7, 8, 50, 4);
        a.validate().unwrap();
        assert_eq!(crate::bench::write_bench(&a), crate::bench::write_bench(&b));
        let c = random_circuit(8, 8, 50, 4);
        assert_ne!(crate::bench::write_bench(&a), crate::bench::write_bench(&c));
    }

    #[test]
    fn sequential_lfsr_unrolls_to_combinational() {
        let mut nl = sequential_lfsr(8, &[1, 2, 3, 7]);
        assert_eq!(nl.stats().dffs, 8);
        // Sequential: cyclic through the DFFs until converted.
        assert!(nl.topo_order().is_err());
        let converted = nl.to_combinational();
        assert_eq!(converted, 8);
        nl.validate().unwrap();
        // State bits became pseudo-PIs, next-state nets pseudo-POs.
        assert_eq!(nl.inputs().len(), 8 + 8);
        assert!(nl.outputs().len() >= 8 + 1 + 8);
    }

    #[test]
    fn gps_like_shifts() {
        let nl = gps_ca_like(16);
        nl.validate().unwrap();
        assert_eq!(nl.outputs().len(), 16);
        assert_eq!(nl.inputs().len(), 20);
    }

    #[test]
    fn sha_and_md5_hosts_validate() {
        let sha = sha256_like(2);
        sha.validate().unwrap();
        assert_eq!(sha.outputs().len(), 256);
        let md5 = md5_like(2);
        md5.validate().unwrap();
        assert_eq!(md5.outputs().len(), 128);
    }

    #[test]
    fn word_helpers_roundtrip() {
        let mut nl = Netlist::new("w");
        let a = input_word(&mut nl, "a", 8);
        let r = rotr(&a, 3);
        assert_eq!(r[0], a[3]);
        assert_eq!(r[7], a[(7 + 3) % 8]);
        let s = shr(&mut nl, &a, 2);
        assert_eq!(s[0], a[2]);
        // Top bits are the constant-0 net.
        assert_eq!(s[6], s[7]);
    }

    #[test]
    fn const_net_is_shared() {
        let mut nl = Netlist::new("c");
        let z1 = const_net(&mut nl, false);
        let z2 = const_net(&mut nl, false);
        let o1 = const_net(&mut nl, true);
        assert_eq!(z1, z2);
        assert_ne!(z1, o1);
        assert_eq!(nl.gate_count(), 2);
    }
}
