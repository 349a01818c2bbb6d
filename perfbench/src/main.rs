//! `perfbench`: run a workload, or report on saved results.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!           [--lock-seed L]
//! perfbench steady <record.json>...
//! perfbench compare <base record.json>... -- <change record.json>...
//! ```
//!
//! A run prints a human-readable summary on stderr and, as the last line
//! of stdout, `{"correct", "attempted", "failed", "metrics"}`. It exits 1
//! when any output was wrong and 2 on a usage error. Its full record
//! (seed, settings, commit, per-pass walls, failures) goes to
//! `out/<workload>-seed<N>-trace<T>.json`, and a traced run's spans to
//! `out/<workload>-seed<N>.spans.jsonl`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::{bounds, compare, steadiness, Record};
use perfbench::run::{record_json, reduce, result_line, run, spans_jsonl, Outcome, Settings};
use perfbench::{out_dir, prepare, Inputs, Size, Workload, DEFAULT_SEED};

const USAGE: &str =
    "usage: perfbench --workload <attack_local|attack_remote_morph|oracle_serve|sweep_farm|all> \
[--seed N] [--seconds S] [--trace 0|1] [--lock-seed L]\n       \
perfbench steady <record.json>...\n       \
perfbench compare <base record.json>... -- <change record.json>...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("steady") => steady_cmd(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        _ => run_cmd(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

struct RunArgs {
    workloads: Vec<Workload>,
    inputs: Inputs,
    seconds: u64,
    trace: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workloads = None;
    let mut inputs = Inputs {
        seed: DEFAULT_SEED,
        lock_seed: DEFAULT_SEED,
        size: Size::Full,
    };
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number `{v}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workloads = Some(match value {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?],
                });
            }
            "--seed" => inputs.seed = number(value)?,
            "--lock-seed" => inputs.lock_seed = number(value)?,
            "--seconds" => seconds = number(value)?.clamp(1, 120),
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(RunArgs {
        workloads: workloads.ok_or("--workload is required")?,
        inputs,
        seconds,
        trace,
    })
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;
    let mut all_correct = true;
    for workload in a.workloads {
        let settings = Settings {
            workload,
            inputs: a.inputs,
            seconds: a.seconds,
            trace: a.trace,
        };
        let mut bench = prepare(workload, a.inputs)?;
        let passes = run(&settings, bench.as_mut());
        let outcome = reduce(settings, &passes);
        summarize(&outcome);
        save(&outcome, a.trace.then(|| spans_jsonl(&passes)));
        all_correct &= outcome.correct();
        println!("{}", result_line(&outcome));
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// The human-readable summary, on stderr.
fn summarize(o: &Outcome) {
    let s = &o.settings;
    eprintln!(
        "{} — seed {} lock-seed {} trace {} — {} passes, {} attempted, {} failed (fail_ratio {})",
        s.workload.name(),
        s.inputs.seed,
        s.inputs.lock_seed,
        u8::from(s.trace),
        o.passes,
        o.attempted,
        o.failed,
        o.fail_ratio()
    );
    for ((name, unit, _), v) in &o.metrics {
        eprintln!("  {name:<28} {v:>16.6} {unit}");
    }
    for f in o.failures.iter().take(20) {
        eprintln!("  FAILED: {f}");
    }
}

/// Writes the run's record (and spans) under the output directory. A
/// failure to write is reported, not fatal: the result line still goes
/// out.
fn save(o: &Outcome, spans: Option<String>) {
    let s = &o.settings;
    let dir = out_dir();
    let stem = format!("{}-seed{}", s.workload.name(), s.inputs.seed);
    let mut files = vec![(
        dir.join(format!("{stem}-trace{}.json", u8::from(s.trace))),
        record_json(o),
    )];
    if let Some(spans) = spans {
        files.push((dir.join(format!("{stem}.spans.jsonl")), spans));
    }
    for (path, text) in files {
        let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text));
        if let Err(e) = written {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
}

fn load_all(paths: &[String]) -> Result<Vec<Record>, String> {
    paths
        .iter()
        .map(|p| Record::load(&PathBuf::from(p)))
        .collect()
}

fn benchmark_bounds() -> Result<std::collections::BTreeMap<String, (f64, bool)>, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    bounds(&text)
}

fn steady_cmd(args: &[String]) -> Result<ExitCode, String> {
    if args.is_empty() {
        return Err("steady needs record files".into());
    }
    let (table, flagged) = steadiness(&load_all(args)?, &benchmark_bounds()?);
    print!("{table}");
    Ok(if flagged {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("compare needs `--` between the base and change records")?;
    let (base, change) = (load_all(&args[..split])?, load_all(&args[split + 1..])?);
    if base.is_empty() || change.is_empty() {
        return Err("compare needs records on both sides".into());
    }
    match compare(&base, &change, &benchmark_bounds()?) {
        Ok((table, regressed)) => {
            print!("{table}");
            Ok(if regressed {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            })
        }
        Err(refusal) => {
            eprintln!("perfbench: {refusal}");
            Ok(ExitCode::from(2))
        }
    }
}
