//! `ril-bench` — the one CLI for every table and figure of the paper.
//!
//! ```text
//! ril-bench list                      # what can run
//! ril-bench run table1 table3         # specific experiments
//! ril-bench run --all                 # everything, in registry order
//! ril-bench run --all --smoke         # CI-sized variants
//! ril-bench run --no-cache table1     # recompute every cell
//! ril-bench run --out-dir out table1  # override RIL_OUT_DIR
//! ```
//!
//! ```text
//! ril-bench run --workers 4 table1    # farm its cells over 4 worker procs
//! ril-bench worker --connect H:P      # join a farm from any machine
//! ril-bench trace exp_out             # per-phase breakdown + TRACE_*.json
//! ril-bench validate exp_out          # integrity-check manifests + span logs
//! ```
//!
//! `--workers N` starts a loopback farm coordinator, spawns N local
//! worker processes, and lets them fill the cell cache before the
//! experiment assembles its tables (README "Distributed sweeps"). The
//! `worker` subcommand is the same worker loop pointed at a remote
//! coordinator.
//!
//! Environment knobs (`RIL_TIMEOUT_SECS`, `RIL_THREADS`, `RIL_OUT_DIR`,
//! `RIL_TABLE1_FULL`, `RIL_MC_INSTANCES`, `RIL_LOG`) are parsed and
//! validated once into a `RunConfig`; malformed values are hard errors,
//! not silent defaults. Each experiment leaves `MANIFEST_<name>.json`,
//! its span log `SPANS_<name>.jsonl` (spans, notes, errors, metrics),
//! and content-addressed cell caches under the output directory, so
//! interrupted sweeps resume where they stopped. `trace` renders each
//! span log as a Perfetto-loadable `TRACE_<name>.json` beside it.

use std::path::Path;
use std::process::ExitCode;

use ril_bench::experiment::{find, registry, run_experiments_with, Experiment};
use ril_bench::farm::worker::worker_main;
use ril_bench::{trace_report, validate_run_dir, FarmSpec, RunConfig, WorkerConfig};

fn usage() -> &'static str {
    "usage:\n  ril-bench list\n  ril-bench run [--all] [--smoke] [--no-cache] [--workers N] [--out-dir DIR] [NAME…]\n  ril-bench worker --connect HOST:PORT [--name NAME]\n  ril-bench trace <run-dir>   (also writes TRACE_<exp>.json per span log)\n  ril-bench validate <run-dir>"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("{:<15} description", "experiment");
            for exp in registry() {
                println!("{:<15} {}", exp.name(), exp.describe());
            }
            ExitCode::SUCCESS
        }
        Some("run") => run(&args[1..]),
        Some("worker") => worker(&args[1..]),
        Some("trace") => run_dir_command(&args[1..], "trace", trace_report),
        Some("validate") => run_dir_command(&args[1..], "validate", validate_run_dir),
        Some(other) => {
            eprintln!("unknown command {other:?}\n{}", usage());
            ExitCode::from(2)
        }
        None => {
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}

fn run_dir_command(
    args: &[String],
    verb: &str,
    f: fn(&Path) -> Result<String, String>,
) -> ExitCode {
    let dir = match args {
        [dir] if !dir.starts_with('-') => Path::new(dir),
        _ => {
            eprintln!("{verb} takes exactly one run directory\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match f(dir) {
        Ok(summary) => {
            println!("{verb} {}: {summary}", dir.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{verb} {} failed:\n{e}", dir.display());
            ExitCode::FAILURE
        }
    }
}

fn worker(args: &[String]) -> ExitCode {
    let mut cfg = WorkerConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--connect" => match it.next() {
                Some(addr) => cfg.connect = addr.clone(),
                None => {
                    eprintln!("--connect needs HOST:PORT\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--name" => match it.next() {
                Some(name) => cfg.name = name.clone(),
                None => {
                    eprintln!("--name needs a value\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown worker argument {other:?}\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    if cfg.connect.is_empty() {
        eprintln!("worker needs --connect HOST:PORT\n{}", usage());
        return ExitCode::from(2);
    }
    match worker_main(&cfg, &mut std::io::stdout()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("worker {}: {e}", cfg.name);
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> ExitCode {
    let mut cfg = match RunConfig::from_env() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("invalid environment: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all = false;
    let mut smoke = false;
    let mut workers = 0usize;
    let mut names: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => all = true,
            "--smoke" => smoke = true,
            "--no-cache" => cfg.use_cache = false,
            "--workers" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) => workers = n,
                None => {
                    eprintln!("--workers needs a number\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--out-dir" => match it.next() {
                Some(dir) => cfg.out_dir = dir.into(),
                None => {
                    eprintln!("--out-dir needs a directory\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag {flag:?}\n{}", usage());
                return ExitCode::from(2);
            }
            name => names.push(name.to_string()),
        }
    }
    if smoke {
        cfg = cfg.apply_smoke();
    }
    let experiments: Vec<Box<dyn Experiment>> = if all {
        if !names.is_empty() {
            eprintln!(
                "--all and explicit names are mutually exclusive\n{}",
                usage()
            );
            return ExitCode::from(2);
        }
        registry()
    } else {
        if names.is_empty() {
            eprintln!("nothing to run\n{}", usage());
            return ExitCode::from(2);
        }
        let mut exps = Vec::new();
        for name in &names {
            match find(name) {
                Some(exp) => exps.push(exp),
                None => {
                    eprintln!("unknown experiment {name:?} — try `ril-bench list`");
                    return ExitCode::from(2);
                }
            }
        }
        exps
    };

    let farm = (workers > 0).then(|| FarmSpec {
        workers,
        ..FarmSpec::default()
    });
    let records = run_experiments_with(&experiments, &cfg, farm.as_ref());
    println!("\n== run summary ({}) ==", cfg.out_dir.display());
    let mut failures = 0usize;
    for r in &records {
        match &r.outcome {
            Ok(summary) => println!(
                "  ok   {:<15} {:>8.1}s  cached {:>3}  computed {:>3}  {}",
                r.name, r.wall_s, r.cached_cells, r.computed_cells, summary
            ),
            Err(e) => {
                failures += 1;
                println!("  FAIL {:<15} {:>8.1}s  {}", r.name, r.wall_s, e);
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} experiment(s) failed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
