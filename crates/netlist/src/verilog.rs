//! Structural Verilog reader and writer (gate-level subset).
//!
//! Supports the flat, structural netlists EDA flows exchange:
//!
//! ```verilog
//! // KEYINPUTS: keyinput0 keyinput1
//! module c17 (G1, G2, G22);
//!   input G1, G2;
//!   output G22;
//!   wire w0;
//!   nand g0 (w0, G1, G2);
//!   assign G22 = G1 ? w0 : 1'b0;
//! endmodule
//! ```
//!
//! Recognized constructs: one `module` with a port list; `input`/`output`/
//! `wire` declarations; primitive gate instantiations (`and`, `or`,
//! `nand`, `nor`, `xor`, `xnor`, `not`, `buf`, `dff`) with the output as
//! the first terminal; and `assign` statements of the forms `wire`,
//! `1'b0`/`1'b1`, `~wire`, and the MUX ternary `sel ? a : b`. Key inputs
//! round-trip through the `// KEYINPUTS:` header comment (Verilog has no
//! standard marker; published locking tools use naming conventions).

use crate::gate::GateKind;
use crate::netlist::{Netlist, NetlistError};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// Errors produced while parsing structural Verilog.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseVerilogError {
    /// Malformed construct with an explanation.
    Syntax(String),
    /// Structural violation while assembling the netlist.
    Netlist(NetlistError),
}

impl fmt::Display for ParseVerilogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseVerilogError::Syntax(m) => write!(f, "verilog syntax: {m}"),
            ParseVerilogError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl Error for ParseVerilogError {}

impl From<NetlistError> for ParseVerilogError {
    fn from(e: NetlistError) -> Self {
        ParseVerilogError::Netlist(e)
    }
}

fn syntax(msg: impl Into<String>) -> ParseVerilogError {
    ParseVerilogError::Syntax(msg.into())
}

/// Serializes a netlist as structural Verilog.
///
/// `Lut2` gates are emitted as `assign` sum-of-products over their two
/// inputs (keeping the file synthesizable), MUXes as ternary assigns, and
/// constants as `1'b0`/`1'b1` assigns.
pub fn write_verilog(nl: &Netlist) -> String {
    let mut out = String::new();
    if !nl.key_inputs().is_empty() {
        let names: Vec<&str> = nl.key_inputs().iter().map(|&k| nl.net(k).name()).collect();
        out.push_str(&format!("// KEYINPUTS: {}\n", names.join(" ")));
    }
    let ports: Vec<&str> = nl
        .inputs()
        .iter()
        .chain(nl.outputs().iter())
        .map(|&n| nl.net(n).name())
        .collect();
    out.push_str(&format!(
        "module {} ({});\n",
        sanitize(nl.name()),
        ports.join(", ")
    ));
    let inputs: Vec<&str> = nl.inputs().iter().map(|&n| nl.net(n).name()).collect();
    if !inputs.is_empty() {
        out.push_str(&format!("  input {};\n", inputs.join(", ")));
    }
    let outputs: Vec<&str> = nl.outputs().iter().map(|&n| nl.net(n).name()).collect();
    if !outputs.is_empty() {
        out.push_str(&format!("  output {};\n", outputs.join(", ")));
    }
    // Wires: every driven net that is neither input nor output.
    let io: HashSet<&str> = inputs.iter().chain(outputs.iter()).copied().collect();
    let wires: Vec<&str> = nl
        .nets()
        .filter(|(id, net)| {
            net.driver().is_some() && !io.contains(net.name()) && {
                let _ = id;
                true
            }
        })
        .map(|(_, net)| net.name())
        .collect();
    if !wires.is_empty() {
        out.push_str(&format!("  wire {};\n", wires.join(", ")));
    }
    for (gid, gate) in nl.gates() {
        let y = nl.net(gate.output()).name();
        let ins: Vec<&str> = gate.inputs().iter().map(|&n| nl.net(n).name()).collect();
        match gate.kind() {
            GateKind::And
            | GateKind::Or
            | GateKind::Nand
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor
            | GateKind::Not
            | GateKind::Buf
            | GateKind::Dff => {
                let prim = gate.kind().mnemonic().to_ascii_lowercase();
                out.push_str(&format!(
                    "  {prim} g{} ({y}, {});\n",
                    gid.index(),
                    ins.join(", ")
                ));
            }
            GateKind::Mux => {
                // inputs [s, a, b]: s ? b : a.
                out.push_str(&format!(
                    "  assign {y} = {} ? {} : {};\n",
                    ins[0], ins[2], ins[1]
                ));
            }
            GateKind::Const0 => out.push_str(&format!("  assign {y} = 1'b0;\n")),
            GateKind::Const1 => out.push_str(&format!("  assign {y} = 1'b1;\n")),
            GateKind::Lut2(tt) => {
                // Sum-of-products over (a, b).
                let (a, b) = (ins[0], ins[1]);
                let mut terms = Vec::new();
                for m in 0..4u8 {
                    if (tt >> m) & 1 == 1 {
                        let la = if m & 1 == 1 {
                            a.to_string()
                        } else {
                            format!("~{a}")
                        };
                        let lb = if m & 2 == 2 {
                            b.to_string()
                        } else {
                            format!("~{b}")
                        };
                        terms.push(format!("({la} & {lb})"));
                    }
                }
                let rhs = if terms.is_empty() {
                    "1'b0".to_string()
                } else {
                    terms.join(" | ")
                };
                out.push_str(&format!("  assign {y} = {rhs};\n"));
            }
        }
    }
    out.push_str("endmodule\n");
    out
}

fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.chars().next().map(|c| c.is_ascii_digit()).unwrap_or(true) {
        s.insert(0, 'm');
    }
    s
}

/// Parses the structural Verilog subset into a [`Netlist`].
///
/// See the module docs for the accepted grammar. The single module's name
/// becomes the design name.
///
/// # Errors
///
/// Returns [`ParseVerilogError::Syntax`] on unsupported constructs and
/// [`ParseVerilogError::Netlist`] on structural violations.
pub fn parse_verilog(text: &str) -> Result<Netlist, ParseVerilogError> {
    // Key-input marker before comment stripping.
    let key_names: HashSet<String> = text
        .lines()
        .filter_map(|l| l.trim().strip_prefix("// KEYINPUTS:"))
        .flat_map(|l| l.split_whitespace().map(str::to_string))
        .collect();

    // Strip comments.
    let mut src = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(pos) = rest.find("/*") {
        src.push_str(&rest[..pos]);
        match rest[pos..].find("*/") {
            Some(end) => rest = &rest[pos + end + 2..],
            None => return Err(syntax("unterminated block comment")),
        }
    }
    src.push_str(rest);
    let src: String = src
        .lines()
        .map(|l| l.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n");

    // Statement-split on `;` (plus the module header).
    let mut nl: Option<Netlist> = None;
    let mut declared_inputs: Vec<String> = Vec::new();
    let mut declared_outputs: Vec<String> = Vec::new();
    struct PendingGate {
        kind: GateKind,
        out: String,
        ins: Vec<String>,
    }
    let mut pending: Vec<PendingGate> = Vec::new();

    for raw_stmt in src.split(';') {
        let stmt = raw_stmt.split_whitespace().collect::<Vec<_>>().join(" ");
        let stmt = stmt.trim();
        if stmt.is_empty() || stmt == "endmodule" {
            continue;
        }
        if let Some(rest) = stmt.strip_prefix("module ") {
            let name = rest
                .split(['(', ' '])
                .next()
                .ok_or_else(|| syntax("module name missing"))?;
            nl = Some(Netlist::new(name));
            continue;
        }
        if stmt.starts_with("endmodule") {
            continue;
        }
        let Some(_) = nl.as_mut() else {
            return Err(syntax(format!("statement before module header: `{stmt}`")));
        };
        if let Some(rest) = stmt.strip_prefix("input ") {
            declared_inputs.extend(split_names(rest));
            continue;
        }
        if let Some(rest) = stmt.strip_prefix("output ") {
            declared_outputs.extend(split_names(rest));
            continue;
        }
        if stmt.strip_prefix("wire ").is_some() {
            continue; // wires materialize lazily
        }
        if let Some(rest) = stmt.strip_prefix("assign ") {
            let (lhs, rhs) = rest
                .split_once('=')
                .ok_or_else(|| syntax(format!("assign without `=`: `{stmt}`")))?;
            let lhs = lhs.trim().to_string();
            let rhs = rhs.trim();
            pending.push(parse_assign_rhs(lhs, rhs)?);
            continue;
        }
        // Primitive instantiation: `prim [inst] ( out , ins... )`.
        let open = stmt
            .find('(')
            .ok_or_else(|| syntax(format!("unsupported statement: `{stmt}`")))?;
        let close = stmt
            .rfind(')')
            .ok_or_else(|| syntax(format!("missing `)`: `{stmt}`")))?;
        let head: Vec<&str> = stmt[..open].split_whitespace().collect();
        let prim = head
            .first()
            .ok_or_else(|| syntax(format!("missing primitive name: `{stmt}`")))?;
        let kind = GateKind::from_mnemonic(prim)
            .filter(|k| {
                matches!(
                    k,
                    GateKind::And
                        | GateKind::Or
                        | GateKind::Nand
                        | GateKind::Nor
                        | GateKind::Xor
                        | GateKind::Xnor
                        | GateKind::Not
                        | GateKind::Buf
                        | GateKind::Dff
                )
            })
            .ok_or_else(|| syntax(format!("unknown primitive `{prim}`")))?;
        let terms: Vec<String> = stmt[open + 1..close]
            .split(',')
            .map(|t| t.trim().to_string())
            .filter(|t| !t.is_empty())
            .collect();
        if terms.len() < 2 {
            return Err(syntax(format!(
                "primitive needs output and inputs: `{stmt}`"
            )));
        }
        pending.push(PendingGate {
            kind,
            out: terms[0].clone(),
            ins: terms[1..].to_vec(),
        });
    }

    let mut nl = nl.ok_or_else(|| syntax("no module found"))?;
    for name in &declared_inputs {
        if key_names.contains(name) {
            nl.add_key_input(name.clone())?;
        } else {
            nl.add_input(name.clone())?;
        }
    }
    let ensure = |nl: &mut Netlist, name: &str| match nl.net_id(name) {
        Some(id) => id,
        None => nl.add_net(name).expect("absent checked"),
    };
    for g in pending {
        let out = ensure(&mut nl, &g.out);
        let ins: Vec<_> = g.ins.iter().map(|n| ensure(&mut nl, n)).collect();
        nl.add_gate(g.kind, &ins, out)?;
    }
    for name in &declared_outputs {
        let id = nl
            .net_id(name)
            .ok_or_else(|| syntax(format!("output `{name}` never driven or declared")))?;
        nl.mark_output(id);
    }
    return Ok(nl);

    fn split_names(rest: &str) -> Vec<String> {
        rest.split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect()
    }

    fn parse_assign_rhs(lhs: String, rhs: &str) -> Result<PendingGate, ParseVerilogError> {
        if rhs == "1'b0" {
            return Ok(PendingGate {
                kind: GateKind::Const0,
                out: lhs,
                ins: vec![],
            });
        }
        if rhs == "1'b1" {
            return Ok(PendingGate {
                kind: GateKind::Const1,
                out: lhs,
                ins: vec![],
            });
        }
        if let Some((cond, arms)) = rhs.split_once('?') {
            let (t, f) = arms
                .split_once(':')
                .ok_or_else(|| syntax(format!("ternary without `:`: `{rhs}`")))?;
            // `s ? t : f` — our MUX convention is inputs [s, f, t].
            return Ok(PendingGate {
                kind: GateKind::Mux,
                out: lhs,
                ins: vec![
                    cond.trim().to_string(),
                    f.trim().to_string(),
                    t.trim().to_string(),
                ],
            });
        }
        if let Some(n) = rhs.strip_prefix('~') {
            return Ok(PendingGate {
                kind: GateKind::Not,
                out: lhs,
                ins: vec![n.trim().to_string()],
            });
        }
        if rhs.contains(['&', '|', '(']) {
            // Sum-of-products over two variables (Lut2 writer output): fall
            // back to rejecting anything more general.
            return parse_sop(lhs, rhs);
        }
        Ok(PendingGate {
            kind: GateKind::Buf,
            out: lhs,
            ins: vec![rhs.to_string()],
        })
    }

    /// Parses the exact sum-of-products shape the writer emits for `Lut2`:
    /// `(~a & ~b) | (a & ~b) | ...` over two distinct names.
    fn parse_sop(lhs: String, rhs: &str) -> Result<PendingGate, ParseVerilogError> {
        let mut a_name: Option<String> = None;
        let mut b_name: Option<String> = None;
        let mut tt = 0u8;
        for term in rhs.split('|') {
            let term = term.trim();
            let term = term
                .strip_prefix('(')
                .and_then(|t| t.strip_suffix(')'))
                .ok_or_else(|| syntax(format!("unsupported expression `{rhs}`")))?;
            let (la, lb) = term
                .split_once('&')
                .ok_or_else(|| syntax(format!("unsupported product `{term}`")))?;
            let mut minterm = 0u8;
            for (pos, lit) in [(0u8, la.trim()), (1, lb.trim())] {
                let (neg, name) = match lit.strip_prefix('~') {
                    Some(n) => (true, n.trim()),
                    None => (false, lit),
                };
                let slot = if pos == 0 { &mut a_name } else { &mut b_name };
                match slot {
                    None => *slot = Some(name.to_string()),
                    Some(existing) if existing == name => {}
                    Some(_) => return Err(syntax(format!("mixed variables in `{rhs}`"))),
                }
                if !neg {
                    minterm |= 1 << pos;
                }
            }
            tt |= 1 << minterm;
        }
        match (a_name, b_name) {
            (Some(a), Some(b)) => Ok(PendingGate {
                kind: GateKind::Lut2(tt),
                out: lhs,
                ins: vec![a, b],
            }),
            _ => Err(syntax(format!("unsupported expression `{rhs}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::c17;
    use crate::generators;
    use crate::CompiledSim;

    fn roundtrip_equivalent(nl: &Netlist) {
        let text = write_verilog(nl);
        let back = parse_verilog(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(back.inputs().len(), nl.inputs().len());
        assert_eq!(back.outputs().len(), nl.outputs().len());
        // Functional spot check by name-aligned simulation.
        let mut s1 = CompiledSim::new(nl).expect("sim");
        let mut s2 = CompiledSim::new(&back).expect("sim");
        for pattern in [0u64, 0xDEADBEEF, u64::MAX, 0x1234_5678_9ABC_DEF0] {
            let bits: Vec<bool> = (0..nl.inputs().len())
                .map(|i| (pattern >> (i % 64)) & 1 == 1)
                .collect();
            // Align by name: back's input order equals declaration order,
            // which matches nl's.
            assert_eq!(s1.eval_bits(&bits), s2.eval_bits(&bits));
        }
    }

    #[test]
    fn c17_round_trips() {
        roundtrip_equivalent(&c17());
    }

    #[test]
    fn adder_with_constants_round_trips() {
        roundtrip_equivalent(&generators::adder(5));
    }

    #[test]
    fn mux_and_lut_round_trip() {
        let text = "INPUT(s)\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\n\
                    y = MUX(s, a, b)\nz = LUT2(0x9, a, b)\n";
        let nl = crate::parse_bench("m", text).unwrap();
        roundtrip_equivalent(&nl);
        // And the emitted text contains the expected idioms.
        let v = write_verilog(&nl);
        assert!(v.contains("assign y = s ? b : a;"), "{v}");
        assert!(v.contains("assign z ="), "{v}");
    }

    #[test]
    fn key_inputs_round_trip_via_header() {
        let text = "KEYINPUT(k0)\nINPUT(a)\nOUTPUT(y)\ny = XOR(a, k0)\n";
        let nl = crate::parse_bench("locked", text).unwrap();
        let v = write_verilog(&nl);
        assert!(v.starts_with("// KEYINPUTS: k0\n"), "{v}");
        let back = parse_verilog(&v).unwrap();
        assert_eq!(back.key_inputs().len(), 1);
        assert_eq!(back.data_inputs().len(), 1);
    }

    #[test]
    fn dff_round_trips() {
        let text = "INPUT(d)\nOUTPUT(q)\nq = DFF(d)\n";
        let nl = crate::parse_bench("seq", text).unwrap();
        let v = write_verilog(&nl);
        assert!(v.contains("dff "), "{v}");
        let back = parse_verilog(&v).unwrap();
        assert_eq!(back.stats().dffs, 1);
    }

    #[test]
    fn comments_and_formatting_tolerated() {
        let v = "\
// a comment
/* block
   comment */
module m (a, y);
  input a;
  output y;
  not g0 (y, a); // trailing
endmodule
";
        let nl = parse_verilog(v).unwrap();
        assert_eq!(nl.gate_count(), 1);
        assert_eq!(nl.name(), "m");
    }

    #[test]
    fn syntax_errors_reported() {
        assert!(parse_verilog("not g0 (y, a);").is_err()); // before module
        assert!(parse_verilog("module m (a);\n frobnicate g0 (y, a);\nendmodule").is_err());
        assert!(parse_verilog("module m (a);\n input a;\n output y;\nendmodule").is_err());
        assert!(parse_verilog("/* unterminated").is_err());
    }

    #[test]
    fn locked_benchmark_round_trips() {
        // The full flow artifact: generator → (externally locked) → verilog.
        let nl = generators::benchmark("gps").unwrap();
        roundtrip_equivalent(&nl);
    }
}
