//! `rilock` — command-line front end for the RIL-Blocks suite.
//!
//! ```text
//! rilock info   <design.bench>
//! rilock lock   <design.bench|.v> [--spec 8x8x8] [--blocks 3] [--scan]
//!               [--seed N] [--out locked.bench] [--key key.txt]
//! rilock attack <locked.bench> --key key.txt [--timeout SECS] [--appsat]
//! rilock serve  [--addr HOST:PORT] [--addr-file PATH] [--shards N]
//!               [--morph-queries K] [--morph-ms T] [--query-limit N]
//! rilock remote-attack <HOST:PORT> [--benchmark NAME] [--spec 2x2]
//!               [--blocks N] [--seed N] [--scan] [--zero-se]
//!               [--timeout SECS] [--appsat] [--probe-batch N]
//!               [--probe-pipeline N] [--shutdown]
//! rilock top    <HOST:PORT> [--interval-ms N] [--frames N] [--shutdown]
//! ```
//!
//! The key file is one `0`/`1` character per key bit, netlist
//! `KEYINPUT` order (what `lock` writes). `attack` builds the activated-IC
//! oracle from the locked netlist plus that key, then plays the adversary.
//! `serve` hosts activated chips over TCP (with the morph scheduler when
//! `--morph-queries`/`--morph-ms` are given); `remote-attack` activates a
//! chip on such a server and plays the adversary across the network.

use ril_blocks::attacks::appsat::appsat_attack;
use ril_blocks::attacks::satattack::sat_attack;
use ril_blocks::attacks::{check_key, AppSatConfig, Oracle, SatAttackConfig};
use ril_blocks::core::key::{KeyBitKind, KeyStore};
use ril_blocks::core::{LockedCircuit, Obfuscator, RilBlockSpec};
use ril_blocks::netlist::{parse_bench, parse_verilog, write_bench, write_verilog, Netlist};
use ril_blocks::serve::{DesignSpec, RemoteOracle, ServeClient, ServeConfig, Server, ServerStats};
use ril_blocks::trace::HistogramSnapshot;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("rilock: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return Err(usage());
    };
    match command.as_str() {
        "info" => info(&args[1..]),
        "lock" => lock(&args[1..]),
        "attack" => attack(&args[1..]),
        "serve" => serve(&args[1..]),
        "remote-attack" => remote_attack(&args[1..]),
        "top" => top(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage:\n  rilock info   <design.bench>\n  rilock lock   <design.bench|.v> [--spec 8x8x8] [--blocks 3] [--scan] [--seed N] [--out locked.bench] [--key key.txt]\n  rilock attack <locked.bench> --key key.txt [--timeout SECS] [--appsat]\n  rilock serve  [--addr HOST:PORT] [--addr-file PATH] [--shards N] [--morph-queries K] [--morph-ms T] [--query-limit N]\n  rilock remote-attack <HOST:PORT> [--benchmark NAME] [--spec 2x2] [--blocks N] [--seed N] [--scan] [--zero-se] [--timeout SECS] [--appsat] [--probe-batch N] [--probe-pipeline N] [--shutdown]\n  rilock top    <HOST:PORT> [--interval-ms N] [--frames N] [--shutdown]".to_string()
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn load_netlist(path: &str) -> Result<Netlist, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("design");
    if path.ends_with(".v") || path.ends_with(".sv") {
        parse_verilog(&text).map_err(|e| format!("parse {path}: {e}"))
    } else {
        parse_bench(name, &text).map_err(|e| format!("parse {path}: {e}"))
    }
}

fn save_netlist(path: &str, nl: &Netlist) -> Result<(), String> {
    let text = if path.ends_with(".v") || path.ends_with(".sv") {
        write_verilog(nl)
    } else {
        write_bench(nl)
    };
    std::fs::write(path, text).map_err(|e| e.to_string())
}

fn load_key(path: &str, expected: usize) -> Result<Vec<bool>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let bits = KeyStore::parse_bit_string(&text)
        .map_err(|c| format!("bad key character `{c}` in {path}"))?;
    if bits.len() != expected {
        return Err(format!(
            "key width mismatch: {path} has {} bits, netlist has {expected} key inputs",
            bits.len()
        ));
    }
    Ok(bits)
}

fn info(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(usage)?;
    let nl = load_netlist(path)?;
    println!("{}: {}", nl.name(), nl.stats());
    println!("transistor estimate: {}", nl.transistor_estimate());
    if !nl.key_inputs().is_empty() {
        println!("locked design: {} key inputs", nl.key_inputs().len());
    }
    Ok(())
}

fn lock(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(usage)?;
    let nl = load_netlist(path)?;
    let spec_str = flag_value(args, "--spec").unwrap_or("8x8x8");
    let spec = RilBlockSpec::parse(spec_str)
        .ok_or_else(|| format!("bad --spec `{spec_str}` (expected e.g. 2x2, 8x8, 8x8x8)"))?;
    let blocks: usize = flag_value(args, "--blocks")
        .unwrap_or("3")
        .parse()
        .map_err(|_| "bad --blocks".to_string())?;
    let seed: u64 = flag_value(args, "--seed")
        .unwrap_or("0")
        .parse()
        .map_err(|_| "bad --seed".to_string())?;
    let out_path = flag_value(args, "--out").unwrap_or("locked.bench");
    let key_path = flag_value(args, "--key").unwrap_or("key.txt");

    let locked = Obfuscator::new(spec)
        .blocks(blocks)
        .scan_obfuscation(has_flag(args, "--scan"))
        .seed(seed)
        .obfuscate(&nl)
        .map_err(|e| format!("obfuscation failed: {e}"))?;
    if !locked.verify(32).map_err(|e| e.to_string())? {
        return Err("internal error: locked circuit failed verification".into());
    }
    save_netlist(out_path, &locked.netlist)?;
    std::fs::write(key_path, locked.keys.to_bit_string()).map_err(|e| e.to_string())?;
    println!(
        "locked {} with {blocks} × {spec}{}: {} key bits, +{} gates",
        nl.name(),
        if locked.spec.scan_obfuscation {
            " (+SE)"
        } else {
            ""
        },
        locked.key_width(),
        locked.gate_overhead(),
    );
    println!("wrote {out_path} and {key_path}");
    Ok(())
}

/// Reconstructs a LockedCircuit-ish pair for CLI flows: the locked netlist
/// plus its correct key, with an identity "original" (good enough for the
/// oracle; functional verification needs the pristine design and is
/// reported only when the original is available to the caller).
fn locked_from_files(path: &str, key_path: &str) -> Result<(Netlist, Vec<bool>), String> {
    let nl = load_netlist(path)?;
    if nl.key_inputs().is_empty() {
        return Err(format!("{path} has no KEYINPUTs — not a locked design"));
    }
    let key = load_key(key_path, nl.key_inputs().len())?;
    Ok((nl, key))
}

fn attack(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(usage)?;
    let key_path = flag_value(args, "--key").ok_or("--key is required for attack")?;
    let (nl, key) = locked_from_files(path, key_path)?;
    let timeout: u64 = flag_value(args, "--timeout")
        .unwrap_or("60")
        .parse()
        .map_err(|_| "bad --timeout".to_string())?;

    // Build the activated chip: the locked netlist with the key burned in.
    let mut keys = KeyStore::new();
    for &b in &key {
        keys.push(KeyBitKind::Baseline, b);
    }
    let locked = LockedCircuit {
        original: nl.clone(),
        netlist: nl.clone(),
        keys,
        spec: RilBlockSpec::size_2x2(),
        blocks: 0,
        block_meta: Vec::new(),
    };
    let mut oracle = Oracle::new(&locked).map_err(|e| e.to_string())?;
    let view = ril_blocks::attacks::attacker_view(&locked);
    let report = if has_flag(args, "--appsat") {
        let cfg = AppSatConfig {
            timeout: Some(Duration::from_secs(timeout)),
            ..AppSatConfig::default()
        };
        appsat_attack(&view, &mut oracle, &cfg)
    } else {
        let cfg = SatAttackConfig {
            timeout: Some(Duration::from_secs(timeout)),
            ..SatAttackConfig::default()
        };
        sat_attack(&view, &mut oracle, &cfg)
    };
    println!("{report}");
    if let Some(found) = report.result.key() {
        let matches = found.iter().zip(&key).filter(|(a, b)| a == b).count();
        println!(
            "recovered key agrees with the stored key on {matches}/{} bits",
            key.len()
        );
    }
    Ok(())
}

/// Hosts the activation service until the process is killed or a client
/// sends the `shutdown` op.
fn serve(args: &[String]) -> Result<(), String> {
    let mut cfg = ServeConfig {
        addr: flag_value(args, "--addr")
            .unwrap_or("127.0.0.1:0")
            .to_string(),
        ..ServeConfig::default()
    };
    if let Some(n) = flag_value(args, "--shards") {
        cfg.shards = n.parse().map_err(|_| "bad --shards".to_string())?;
    }
    if let Some(k) = flag_value(args, "--morph-queries") {
        cfg.morph_queries = Some(k.parse().map_err(|_| "bad --morph-queries".to_string())?);
    }
    if let Some(t) = flag_value(args, "--morph-ms") {
        let ms: u64 = t.parse().map_err(|_| "bad --morph-ms".to_string())?;
        cfg.morph_interval = Some(Duration::from_millis(ms));
    }
    if let Some(n) = flag_value(args, "--query-limit") {
        cfg.query_limit = Some(n.parse().map_err(|_| "bad --query-limit".to_string())?);
    }

    let handle = Server::start(cfg).map_err(|e| format!("bind failed: {e}"))?;
    println!("ril-serve listening on {}", handle.addr());
    // Scripts discover the OS-assigned port through --addr-file: the file
    // appears only once the listener is live, so "file exists" doubles as
    // the readiness signal.
    if let Some(path) = flag_value(args, "--addr-file") {
        std::fs::write(path, handle.addr().to_string())
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    handle.wait(); // blocks until a client's `shutdown` op drains us
    println!("ril-serve drained");
    Ok(())
}

fn parse_design(args: &[String]) -> Result<DesignSpec, String> {
    Ok(DesignSpec {
        benchmark: flag_value(args, "--benchmark")
            .unwrap_or("c7552")
            .to_string(),
        spec: flag_value(args, "--spec").unwrap_or("2x2").to_string(),
        blocks: flag_value(args, "--blocks")
            .unwrap_or("2")
            .parse()
            .map_err(|_| "bad --blocks".to_string())?,
        seed: flag_value(args, "--seed")
            .unwrap_or("0")
            .parse()
            .map_err(|_| "bad --seed".to_string())?,
        scan: has_flag(args, "--scan"),
        zero_se: has_flag(args, "--zero-se"),
    })
}

/// Activates a chip on a remote server and attacks it across the network.
/// The attacker view and the ground-truth check both come from rebuilding
/// the deterministic design locally.
fn remote_attack(args: &[String]) -> Result<(), String> {
    let addr = args.first().ok_or_else(usage)?;
    let design = parse_design(args)?;
    let timeout: u64 = flag_value(args, "--timeout")
        .unwrap_or("60")
        .parse()
        .map_err(|_| "bad --timeout".to_string())?;

    let locked = design.build()?;
    let view = ril_blocks::attacks::attacker_view(&locked);
    let client = ServeClient::builder(addr.clone())
        .build()
        .map_err(|e| format!("client configuration: {e}"))?;
    let mut oracle = RemoteOracle::activate_with(client, &design)
        .map_err(|e| format!("activation on {addr} failed: {e}"))?;
    println!(
        "activated chip {} on {addr} ({} inputs, {} key bits)",
        oracle.chip(),
        view.data_inputs().len(),
        locked.keys.bits().len(),
    );
    let version = oracle
        .client()
        .negotiation()
        .map_err(|e| format!("connecting to {addr} failed: {e}"))?;
    println!("connected: protocol v{version}");

    use ril_blocks::attacks::{OracleSource, PatternBlock};
    if let Some(n) = flag_value(args, "--probe-batch") {
        let lanes: usize = n.parse().map_err(|_| "bad --probe-batch".to_string())?;
        if !(1..=64).contains(&lanes) {
            return Err("--probe-batch takes 1..=64 patterns".to_string());
        }
        // Deterministic probe rows: lane i carries the bits of i.
        let width = oracle.input_width();
        let rows: Vec<Vec<bool>> = (0..lanes)
            .map(|i| (0..width).map(|b| b < 64 && (i >> b) & 1 == 1).collect())
            .collect();
        let block = PatternBlock::pack(&rows);
        let resp = oracle
            .try_query_batch(&block)
            .map_err(|e| format!("batch probe failed: {e}"))?;
        println!(
            "batch probe: {} patterns answered in one round-trip (generation {})",
            resp.lanes(),
            oracle.generation().unwrap_or(0),
        );
    }

    if let Some(n) = flag_value(args, "--probe-pipeline") {
        let depth: usize = n.parse().map_err(|_| "bad --probe-pipeline".to_string())?;
        if depth == 0 {
            return Err("--probe-pipeline takes at least 1 request".to_string());
        }
        // Pipelined probe: write all requests before reading any answer,
        // then check the responses came back in request order.
        let width = oracle.input_width();
        let chip = oracle.chip();
        let reqs: Vec<ril_blocks::serve::Request> = (0..depth)
            .map(|i| ril_blocks::serve::Request::Query {
                chip,
                inputs: (0..width).map(|b| b < 64 && (i >> b) & 1 == 1).collect(),
            })
            .collect();
        let resps = oracle
            .client()
            .request_pipelined(&reqs)
            .map_err(|e| format!("pipelined probe failed: {e}"))?;
        let mut answered = 0usize;
        for (i, resp) in resps.iter().enumerate() {
            match resp {
                ril_blocks::serve::Response::Outputs { .. } => answered += 1,
                other => return Err(format!("pipelined request {i} failed: {other:?}")),
            }
        }
        println!("pipelined probe: {answered} requests answered in order on one connection");
    }

    let mut report = if has_flag(args, "--appsat") {
        let cfg = AppSatConfig {
            timeout: Some(Duration::from_secs(timeout)),
            ..AppSatConfig::default()
        };
        appsat_attack(&view, &mut oracle, &cfg)
    } else {
        let cfg = SatAttackConfig {
            timeout: Some(Duration::from_secs(timeout)),
            ..SatAttackConfig::default()
        };
        sat_attack(&view, &mut oracle, &cfg)
    };
    check_key(&locked, &mut report).map_err(|e| e.to_string())?;
    println!("{report}");
    if let Some(correct) = report.functionally_correct {
        println!("recovered key functionally correct: {correct}");
    }
    println!(
        "oracle: {} queries, generation {} ({} re-key(s) observed mid-attack)",
        oracle.queries(),
        oracle.generation().unwrap_or(0),
        oracle.generation_changes(),
    );
    println!(
        "oracle batches: {} block(s), {} lane-packed pattern(s)",
        oracle.batch_blocks(),
        oracle.batch_patterns(),
    );

    if has_flag(args, "--shutdown") {
        oracle
            .client()
            .shutdown_server()
            .map_err(|e| format!("shutdown failed: {e}"))?;
        println!("server drained");
    }
    Ok(())
}

/// Formats a microsecond figure with a human-scale unit.
fn fmt_us(us: f64) -> String {
    if us >= 1_000_000.0 {
        format!("{:.2}s", us / 1e6)
    } else if us >= 1000.0 {
        format!("{:.1}ms", us / 1e3)
    } else {
        format!("{us:.0}µs")
    }
}

/// `p50/p99/max` of a histogram, or `-` when it never recorded.
fn quantile_cell(h: Option<&HistogramSnapshot>) -> String {
    match h {
        Some(h) if h.count > 0 => format!(
            "p50={} p99={} max={}",
            fmt_us(h.p50_us()),
            fmt_us(h.p99_us()),
            fmt_us(h.max_us as f64)
        ),
        _ => "-".to_string(),
    }
}

/// Renders one dashboard frame. Returns whether the counter/histogram
/// consistency invariant held (one query request = one `serve.queries`
/// bump = one `serve.query.latency` sample = one per-chip sample).
fn render_top(addr: &str, stats: &ServerStats, prev: Option<(f64, &ServerStats)>) -> bool {
    let m = &stats.metrics;
    println!(
        "ril-serve @ {addr} — up {:.1}s | {} requests | {:.1} qps since last poll | {} morphs",
        stats.uptime_s,
        stats.requests,
        stats.qps,
        m.counter("serve.morphs"),
    );
    println!(
        "phases: decode [{}] | eval [{}] | write [{}] | morph [{}]",
        quantile_cell(m.timing("serve.phase.decode")),
        quantile_cell(m.timing("serve.phase.eval")),
        quantile_cell(m.timing("serve.phase.write")),
        quantile_cell(m.timing("serve.phase.morph")),
    );
    println!(
        "{:>6} {:>5} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "chip", "gen", "morphs", "queries", "qps", "lanes/blk", "p50", "p99"
    );
    for c in &stats.chips {
        let lat = m.timing(&format!("chip.{}.query.latency", c.chip));
        let patterns = m.counter(&format!("chip.{}.query.patterns", c.chip));
        let blocks = m.counter(&format!("chip.{}.query.blocks", c.chip));
        let lanes = if blocks > 0 {
            format!("{:.1}", patterns as f64 / blocks as f64)
        } else {
            "-".to_string()
        };
        // Per-chip qps comes from differencing this dashboard's own
        // polls (the server's `qps` field is all-requests, all-chips).
        let qps = prev
            .and_then(|(dt, p)| {
                p.chips
                    .iter()
                    .find(|pc| pc.chip == c.chip)
                    .map(|pc| c.queries.saturating_sub(pc.queries) as f64 / dt.max(1e-9))
            })
            .map_or("-".to_string(), |v| format!("{v:.1}"));
        let (p50, p99) = match lat {
            Some(h) if h.count > 0 => (fmt_us(h.p50_us()), fmt_us(h.p99_us())),
            _ => ("-".to_string(), "-".to_string()),
        };
        println!(
            "{:>6} {:>5} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9}",
            c.chip, c.generation, c.morphs, c.queries, qps, lanes, p50, p99
        );
    }
    let queries = m.counter("serve.queries");
    let hist = m.timing("serve.query.latency").map_or(0, |h| h.count);
    let per_chip: u64 = stats
        .chips
        .iter()
        .map(|c| {
            m.timing(&format!("chip.{}.query.latency", c.chip))
                .map_or(0, |h| h.count)
        })
        .sum();
    if queries == hist && queries == per_chip {
        println!(
            "stats consistent: serve.queries={queries} == latency histogram count={hist} \
             (per-chip sum {per_chip})"
        );
        true
    } else {
        println!(
            "stats INCONSISTENT: serve.queries={queries}, latency histogram count={hist}, \
             per-chip sum {per_chip}"
        );
        false
    }
}

/// A polling terminal dashboard over the `stats` op: plain ANSI redraw
/// (clear + home between frames, no TUI dependency), per-chip qps /
/// generation / morphs / latency quantiles, server totals and phase
/// timings. `--frames N` renders N frames then exits (scriptable);
/// without it the loop runs until interrupted. `--shutdown` drains the
/// server after the last frame. Exits nonzero if any frame's
/// counter/histogram consistency check fails.
fn top(args: &[String]) -> Result<(), String> {
    let addr = args.first().ok_or_else(usage)?;
    let interval_ms: u64 = flag_value(args, "--interval-ms")
        .unwrap_or("1000")
        .parse()
        .map_err(|_| "bad --interval-ms".to_string())?;
    let frames: Option<u64> = match flag_value(args, "--frames") {
        Some(n) => Some(n.parse().map_err(|_| "bad --frames".to_string())?),
        None => None,
    };
    let mut client = ServeClient::builder(addr.clone())
        .build()
        .map_err(|e| format!("client configuration: {e}"))?;
    let mut consistent = true;
    let mut prev: Option<(std::time::Instant, ServerStats)> = None;
    let mut frame = 0u64;
    loop {
        let stats = client
            .stats()
            .map_err(|e| format!("stats poll on {addr} failed: {e}"))?;
        let now = std::time::Instant::now();
        if frame > 0 {
            print!("\x1b[2J\x1b[H");
        }
        consistent &= render_top(
            addr,
            &stats,
            prev.as_ref()
                .map(|(t, s)| (now.duration_since(*t).as_secs_f64(), s)),
        );
        prev = Some((now, stats));
        frame += 1;
        if frames.is_some_and(|n| frame >= n) {
            break;
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
    if has_flag(args, "--shutdown") {
        client
            .shutdown_server()
            .map_err(|e| format!("shutdown failed: {e}"))?;
        println!("server drained");
    }
    if !consistent {
        return Err("stats inconsistency detected (see frames above)".into());
    }
    Ok(())
}
