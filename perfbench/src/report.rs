//! Reports over saved result records: the steadiness of each metric
//! across runs, and a comparison of two sets of runs that refuses to
//! compare results made under different seeds or settings.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use ril_attacks::json::JsonValue;

use crate::stats::{median, quartiles, spread};

/// One saved result record.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Everything else that must match for two results to be compared:
    /// lock seed, budget, tracing, cores, build profile.
    pub settings: String,
    /// The commit it measured.
    pub commit: String,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
}

impl Record {
    /// Parses a record written by a run.
    ///
    /// # Errors
    ///
    /// Returns a message for anything that is not a result record.
    pub fn parse(source: &str, text: &str) -> Result<Record, String> {
        let v = JsonValue::parse(text).map_err(|e| format!("{source}: {e}"))?;
        let str_of = |k: &str| {
            v.get(k)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{source}: missing \"{k}\""))
        };
        let num_of = |k: &str| {
            v.get(k)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{source}: missing \"{k}\""))
        };
        let settings = format!(
            "lock_seed={} seconds={} trace={} nproc={} profile={}",
            num_of("lock_seed")?,
            num_of("seconds")?,
            num_of("trace")?,
            num_of("nproc")?,
            str_of("profile")?
        );
        let mut metrics = BTreeMap::new();
        let Some(JsonValue::Obj(fields)) = v.get("metrics") else {
            return Err(format!("{source}: missing \"metrics\""));
        };
        for (name, m) in fields {
            let value = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{source}: metric {name} has no value"))?;
            metrics.insert(name.clone(), value);
        }
        Ok(Record {
            workload: str_of("workload")?,
            seed: v
                .get("seed")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("{source}: missing \"seed\""))?,
            settings,
            commit: str_of("commit")?,
            metrics,
        })
    }

    /// Reads and parses a record file.
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be read or parsed.
    pub fn load(path: &Path) -> Result<Record, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Record::parse(&path.display().to_string(), &text)
    }
}

/// Metric name → (bound, better is lower) from `BENCHMARK.json`'s
/// end-to-end list.
///
/// # Errors
///
/// Returns a message when the file is missing or malformed.
pub fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, (f64, bool)>, String> {
    let v = JsonValue::parse(benchmark_json).map_err(|e| e.to_string())?;
    let list = v
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut out = BTreeMap::new();
    for m in list {
        let name = m
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("metric without name")?;
        let bound = m
            .get("bound")
            .and_then(JsonValue::as_f64)
            .ok_or("metric without bound")?;
        let lower = m.get("better").and_then(JsonValue::as_str) == Some("lower");
        out.insert(name.to_string(), (bound, lower));
    }
    Ok(out)
}

fn group(records: &[Record]) -> BTreeMap<(String, String), Vec<&Record>> {
    let mut g: BTreeMap<(String, String), Vec<&Record>> = BTreeMap::new();
    for r in records {
        g.entry((r.workload.clone(), r.settings.clone()))
            .or_default()
            .push(r);
    }
    g
}

fn values(rs: &[&Record], metric: &str) -> Vec<f64> {
    rs.iter()
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// The steadiness table: for each workload and metric, the median and
/// quartiles over the runs and their spread, flagged when the spread
/// exceeds the metric's bound. Returns the table and whether any metric
/// was flagged.
#[must_use]
pub fn steadiness(records: &[Record], bounds: &BTreeMap<String, (f64, bool)>) -> (String, bool) {
    let mut out = String::new();
    let mut flagged = false;
    for ((workload, settings), rs) in group(records) {
        let mut seeds: Vec<u64> = rs.iter().map(|r| r.seed).collect();
        seeds.sort_unstable();
        let _ = writeln!(
            out,
            "{workload} ({} runs, seeds {seeds:?}; {settings})",
            rs.len()
        );
        let _ = writeln!(
            out,
            "  {:<28} {:>14} {:>14} {:>14} {:>8} {:>7}",
            "metric", "q1", "median", "q3", "spread", "bound"
        );
        for metric in rs[0].metrics.keys() {
            let v = values(&rs, metric);
            let Some((q1, med, q3)) = quartiles(&v) else {
                continue;
            };
            let s = spread(&v).unwrap_or(f64::INFINITY);
            let bound = bounds.get(metric).map(|b| b.0);
            let flag = match bound {
                Some(b) if s > b => {
                    flagged = true;
                    "  SPREAD ABOVE BOUND"
                }
                Some(b) if s > b / 3.0 => "  above a third of the bound",
                _ => "",
            };
            let _ = writeln!(
                out,
                "  {metric:<28} {q1:>14.6} {med:>14.6} {q3:>14.6} {s:>8.4} {:>7}{flag}",
                bound.map_or("-".to_string(), |b| format!("{b}")),
            );
        }
    }
    (out, flagged)
}

/// Compares a base set of runs with a change set, workload by workload.
/// Each side's median is set against the other; a metric is a
/// regression when the change is worse than the base median by more
/// than its bound, and unresolved when the base's own spread exceeds the
/// bound.
///
/// # Errors
///
/// Refuses (returns a message) when the two sides were not run under
/// the same settings or on the same seeds.
pub fn compare(
    base: &[Record],
    change: &[Record],
    bounds: &BTreeMap<String, (f64, bool)>,
) -> Result<(String, bool), String> {
    let (gb, gc) = (group(base), group(change));
    let keys = |g: &BTreeMap<(String, String), Vec<&Record>>| g.keys().cloned().collect::<Vec<_>>();
    if keys(&gb) != keys(&gc) {
        return Err(format!(
            "refusing to compare: the sides differ in workloads or settings\n  base:   {:?}\n  change: {:?}",
            keys(&gb),
            keys(&gc)
        ));
    }
    let mut out = String::new();
    let mut regressed = false;
    for (key, b) in &gb {
        let c = &gc[key];
        let seeds = |rs: &[&Record]| {
            let mut s: Vec<u64> = rs.iter().map(|r| r.seed).collect();
            s.sort_unstable();
            s
        };
        if seeds(b) != seeds(c) {
            return Err(format!(
                "refusing to compare {}: base seeds {:?}, change seeds {:?}",
                key.0,
                seeds(b),
                seeds(c)
            ));
        }
        let _ = writeln!(
            out,
            "{} ({} runs a side; {}; base {}, change {})",
            key.0,
            b.len(),
            key.1,
            b[0].commit,
            c[0].commit
        );
        let _ = writeln!(
            out,
            "  {:<28} {:>14} {:>14} {:>9} {:>7}",
            "metric", "base median", "change median", "change", "bound"
        );
        for metric in b[0].metrics.keys() {
            let (vb, vc) = (values(b, metric), values(c, metric));
            let (Some(mb), Some(mc)) = (median(&vb), median(&vc)) else {
                continue;
            };
            let rel = if mb == 0.0 { 0.0 } else { (mc - mb) / mb.abs() };
            let verdict = match bounds.get(metric) {
                Some(&(bound, lower)) => {
                    let worse = if lower { rel } else { -rel };
                    if worse > bound {
                        regressed = true;
                        "REGRESSION"
                    } else if spread(&vb).is_some_and(|s| s > bound) {
                        "unresolved (base spread above bound)"
                    } else {
                        "within bound"
                    }
                }
                None => "",
            };
            let _ = writeln!(
                out,
                "  {metric:<28} {mb:>14.6} {mc:>14.6} {:>8.2}% {:>7}  {verdict}",
                rel * 100.0,
                bounds
                    .get(metric)
                    .map_or("-".to_string(), |b| format!("{}", b.0)),
            );
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, seed: u64, lock_seed: u64, wall: f64) -> Record {
        let text = format!(
            r#"{{"workload":"{workload}","seed":{seed},"lock_seed":{lock_seed},"seconds":20,"trace":0,"nproc":2,"commit":"abc","profile":"release","metrics":{{"wall_s":{{"value":{wall},"unit":"s"}}}}}}"#
        );
        Record::parse("test", &text).unwrap()
    }

    fn wall_bound() -> BTreeMap<String, (f64, bool)> {
        bounds(r#"{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1}]}"#)
            .unwrap()
    }

    #[test]
    fn compare_refuses_different_seeds_or_settings() {
        let base = vec![record("attack_local", 1, 1000, 4.0)];
        let other_seed = vec![record("attack_local", 2, 1000, 4.0)];
        let other_lock = vec![record("attack_local", 1, 1001, 4.0)];
        assert!(compare(&base, &other_seed, &wall_bound()).is_err());
        assert!(compare(&base, &other_lock, &wall_bound()).is_err());
        let same = vec![record("attack_local", 1, 1000, 4.2)];
        let (_, regressed) = compare(&base, &same, &wall_bound()).unwrap();
        assert!(!regressed, "5% slower is inside a 10% bound");
        let slow = vec![record("attack_local", 1, 1000, 4.5)];
        assert!(compare(&base, &slow, &wall_bound()).unwrap().1);
    }

    #[test]
    fn steadiness_flags_spread_above_the_bound() {
        let steady: Vec<Record> = (0..5)
            .map(|s| record("w", s, 1000, 4.0 + s as f64 * 0.01))
            .collect();
        assert!(!steadiness(&steady, &wall_bound()).1);
        let noisy: Vec<Record> = (0..5)
            .map(|s| record("w", s, 1000, 4.0 + s as f64))
            .collect();
        let (table, flagged) = steadiness(&noisy, &wall_bound());
        assert!(flagged, "{table}");
    }
}
