//! Attack outcome types shared by the whole suite.

use ril_sat::SolverStats;
use ril_trace::json::{escape, JsonValue};
use std::fmt;
use std::time::Duration;

/// How an attack ended.
#[derive(Debug, Clone, PartialEq)]
pub enum AttackResult {
    /// A key was recovered and verified exactly equivalent on the sampled
    /// patterns.
    ExactKey(Vec<bool>),
    /// An approximate key was returned (AppSAT) with the estimated output
    /// error rate.
    ApproxKey {
        /// The candidate key.
        key: Vec<bool>,
        /// Estimated fraction of erroneous output bits.
        est_error: f64,
    },
    /// The time/iteration budget expired — the `∞` entries of the paper's
    /// tables.
    Timeout,
    /// The attack terminated erroneously (e.g. its model became
    /// inconsistent with the oracle — the Scan-Enable defense).
    Failed(String),
}

impl AttackResult {
    /// Whether the attack produced a key it believes in.
    pub fn succeeded(&self) -> bool {
        matches!(
            self,
            AttackResult::ExactKey(_) | AttackResult::ApproxKey { .. }
        )
    }

    /// The recovered key, if any.
    pub fn key(&self) -> Option<&[bool]> {
        match self {
            AttackResult::ExactKey(k) => Some(k),
            AttackResult::ApproxKey { key, .. } => Some(key),
            _ => None,
        }
    }

    /// Stable machine-readable tag for this result variant — the `kind`
    /// field of [`AttackReport::to_json`] and the `result` field on attack
    /// trace spans.
    pub fn kind(&self) -> &'static str {
        match self {
            AttackResult::ExactKey(_) => "exact_key",
            AttackResult::ApproxKey { .. } => "approx_key",
            AttackResult::Timeout => "timeout",
            AttackResult::Failed(_) => "failed",
        }
    }
}

impl fmt::Display for AttackResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackResult::ExactKey(k) => write!(f, "exact key ({} bits)", k.len()),
            AttackResult::ApproxKey { key, est_error } => {
                write!(f, "approx key ({} bits, est err {est_error:.4})", key.len())
            }
            AttackResult::Timeout => f.write_str("∞ (timeout)"),
            AttackResult::Failed(why) => write!(f, "failed: {why}"),
        }
    }
}

/// Solver accounting for one DIP iteration (= one solve call on the
/// persistent miter session).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IterationStats {
    /// 1-based DIP iteration number.
    pub iteration: usize,
    /// Wall-clock time of this iteration's miter solve.
    pub wall: Duration,
    /// Search-statistics delta for this solve only.
    pub stats: SolverStats,
    /// Clauses appended to the miter since the previous iteration (the
    /// previous DIP's I/O constraint).
    pub clauses_added: usize,
}

/// Full attack report: result plus accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackReport {
    /// Outcome.
    pub result: AttackResult,
    /// Wall-clock time spent.
    pub wall: Duration,
    /// DIP iterations executed.
    pub iterations: usize,
    /// Oracle queries issued.
    pub oracle_queries: u64,
    /// Whether the recovered key (if any) was verified functionally
    /// equivalent against the *functional-mode* circuit — the ground-truth
    /// check the attacker cannot run but our harness can.
    pub functionally_correct: Option<bool>,
    /// Cumulative solver statistics of the DIP-finding miter solves (key
    /// extractions excluded).
    pub miter_stats: SolverStats,
    /// Cumulative solver statistics of the key extractions: solves of the
    /// same miter with its difference switched off. Serialized under the
    /// JSON key `finder`.
    pub finder_stats: SolverStats,
    /// Per-DIP-iteration solver accounting, oldest first.
    pub iteration_stats: Vec<IterationStats>,
}

impl AttackReport {
    /// Renders the runtime the way the paper's tables do: seconds, or `∞`.
    pub fn table_cell(&self) -> String {
        match self.result {
            AttackResult::Timeout => "∞".to_string(),
            _ => format!("{:.2}", self.wall.as_secs_f64()),
        }
    }

    /// Serializes the report (including per-iteration solver statistics) as
    /// a JSON object, for the benchmark drivers' machine-readable output.
    /// [`AttackReport::from_json`] parses it back — the bench crate's cell
    /// cache relies on this round trip.
    pub fn to_json(&self) -> String {
        let kind = self.result.kind();
        let result = match &self.result {
            AttackResult::ExactKey(k) => format!(
                r#"{{"kind":"{kind}","bits":{},"key":"{}"}}"#,
                k.len(),
                key_string(k)
            ),
            AttackResult::ApproxKey { key, est_error } => format!(
                r#"{{"kind":"{kind}","bits":{},"est_error":{est_error},"key":"{}"}}"#,
                key.len(),
                key_string(key)
            ),
            AttackResult::Timeout => format!(r#"{{"kind":"{kind}"}}"#),
            AttackResult::Failed(why) => {
                format!(r#"{{"kind":"{kind}","why":"{}"}}"#, escape(why))
            }
        };
        let iters: Vec<String> = self
            .iteration_stats
            .iter()
            .map(|it| {
                format!(
                    r#"{{"iteration":{},"wall_s":{},"clauses_added":{},{}}}"#,
                    it.iteration,
                    it.wall.as_secs_f64(),
                    it.clauses_added,
                    stats_fields(&it.stats)
                )
            })
            .collect();
        format!(
            r#"{{"result":{result},"wall_s":{},"iterations":{},"oracle_queries":{},"functionally_correct":{},"miter":{{{}}},"finder":{{{}}},"per_iteration":[{}]}}"#,
            self.wall.as_secs_f64(),
            self.iterations,
            self.oracle_queries,
            match self.functionally_correct {
                Some(b) => b.to_string(),
                None => "null".to_string(),
            },
            stats_fields(&self.miter_stats),
            stats_fields(&self.finder_stats),
            iters.join(",")
        )
    }
}

impl AttackReport {
    /// Parses a report previously rendered by [`AttackReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the document is not valid
    /// JSON or lacks the report's fields.
    pub fn from_json(s: &str) -> Result<AttackReport, String> {
        let v = JsonValue::parse(s).map_err(|e| e.to_string())?;
        AttackReport::from_json_value(&v)
    }

    /// Parses a report from an already-parsed [`JsonValue`] object (for
    /// callers that embed reports in larger documents).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on shape mismatches.
    pub fn from_json_value(v: &JsonValue) -> Result<AttackReport, String> {
        let result_v = v.get("result").ok_or("missing `result`")?;
        let result = match result_v.get("kind").and_then(JsonValue::as_str) {
            Some("exact_key") => AttackResult::ExactKey(parse_key(result_v)?),
            Some("approx_key") => AttackResult::ApproxKey {
                key: parse_key(result_v)?,
                est_error: result_v
                    .get("est_error")
                    .and_then(JsonValue::as_f64)
                    .ok_or("missing `est_error`")?,
            },
            Some("timeout") => AttackResult::Timeout,
            Some("failed") => AttackResult::Failed(
                result_v
                    .get("why")
                    .and_then(JsonValue::as_str)
                    .ok_or("missing `why`")?
                    .to_string(),
            ),
            other => return Err(format!("unknown result kind {other:?}")),
        };
        let wall_s = v
            .get("wall_s")
            .and_then(JsonValue::as_f64)
            .ok_or("missing `wall_s`")?;
        let functionally_correct = match v.get("functionally_correct") {
            None | Some(JsonValue::Null) => None,
            Some(b) => Some(b.as_bool().ok_or("`functionally_correct` not a bool")?),
        };
        let iteration_stats = v
            .get("per_iteration")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|it| {
                Ok(IterationStats {
                    iteration: req_u64(it, "iteration")? as usize,
                    wall: Duration::from_secs_f64(
                        it.get("wall_s")
                            .and_then(JsonValue::as_f64)
                            .ok_or("missing iteration `wall_s`")?,
                    ),
                    stats: parse_stats(it)?,
                    clauses_added: req_u64(it, "clauses_added")? as usize,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(AttackReport {
            result,
            wall: Duration::from_secs_f64(wall_s),
            iterations: req_u64(v, "iterations")? as usize,
            oracle_queries: req_u64(v, "oracle_queries")?,
            functionally_correct,
            miter_stats: parse_stats(v.get("miter").ok_or("missing `miter`")?)?,
            finder_stats: parse_stats(v.get("finder").ok_or("missing `finder`")?)?,
            iteration_stats,
        })
    }
}

fn key_string(key: &[bool]) -> String {
    key.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

fn parse_key(v: &JsonValue) -> Result<Vec<bool>, String> {
    let s = v
        .get("key")
        .and_then(JsonValue::as_str)
        .ok_or("missing `key` bit string")?;
    s.chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(format!("bad key bit {other:?}")),
        })
        .collect()
}

fn req_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing numeric `{key}`"))
}

fn parse_stats(v: &JsonValue) -> Result<SolverStats, String> {
    Ok(SolverStats {
        decisions: req_u64(v, "decisions")?,
        conflicts: req_u64(v, "conflicts")?,
        propagations: req_u64(v, "propagations")?,
        restarts: req_u64(v, "restarts")?,
        learned: req_u64(v, "learned")?,
        deleted: req_u64(v, "deleted")?,
    })
}

fn stats_fields(s: &SolverStats) -> String {
    format!(
        r#""decisions":{},"conflicts":{},"propagations":{},"restarts":{},"learned":{},"deleted":{}"#,
        s.decisions, s.conflicts, s.propagations, s.restarts, s.learned, s.deleted
    )
}

impl fmt::Display for AttackReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} in {:.2}s, {} iterations, {} oracle queries",
            self.result,
            self.wall.as_secs_f64(),
            self.iterations,
            self.oracle_queries
        )?;
        if let Some(ok) = self.functionally_correct {
            write!(f, ", functional: {}", if ok { "✓" } else { "✗" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_predicates() {
        assert!(AttackResult::ExactKey(vec![true]).succeeded());
        assert!(AttackResult::ApproxKey {
            key: vec![],
            est_error: 0.1
        }
        .succeeded());
        assert!(!AttackResult::Timeout.succeeded());
        assert!(!AttackResult::Failed("x".into()).succeeded());
        assert_eq!(AttackResult::ExactKey(vec![true]).key(), Some(&[true][..]));
        assert_eq!(AttackResult::Timeout.key(), None);
    }

    fn report(result: AttackResult) -> AttackReport {
        AttackReport {
            result,
            wall: Duration::from_secs(3),
            iterations: 5,
            oracle_queries: 5,
            functionally_correct: None,
            miter_stats: SolverStats::default(),
            finder_stats: SolverStats::default(),
            iteration_stats: Vec::new(),
        }
    }

    #[test]
    fn table_cell_formats() {
        let mut r = report(AttackResult::Timeout);
        assert_eq!(r.table_cell(), "∞");
        r.result = AttackResult::ExactKey(vec![]);
        r.wall = Duration::from_millis(1234);
        assert_eq!(r.table_cell(), "1.23");
    }

    #[test]
    fn display_is_informative() {
        let mut r = report(AttackResult::Failed("model inconsistent".into()));
        r.wall = Duration::from_secs(1);
        r.iterations = 2;
        r.oracle_queries = 3;
        r.functionally_correct = Some(false);
        let s = r.to_string();
        assert!(s.contains("model inconsistent"));
        assert!(s.contains("✗"));
    }

    #[test]
    fn json_round_trips_basic_shape() {
        let mut r = report(AttackResult::ExactKey(vec![true, false]));
        r.miter_stats.conflicts = 7;
        r.iteration_stats.push(IterationStats {
            iteration: 1,
            wall: Duration::from_millis(250),
            stats: SolverStats {
                conflicts: 7,
                ..SolverStats::default()
            },
            clauses_added: 12,
        });
        let j = r.to_json();
        assert!(j.contains(r#""kind":"exact_key""#), "{j}");
        assert!(j.contains(r#""bits":2"#), "{j}");
        assert!(j.contains(r#""key":"10""#), "{j}");
        assert!(j.contains(r#""conflicts":7"#), "{j}");
        assert!(j.contains(r#""clauses_added":12"#), "{j}");
        assert!(j.contains(r#""per_iteration":[{"#), "{j}");
        // Failure messages are escaped.
        let bad = report(AttackResult::Failed("he said \"no\"\n".into()));
        let j = bad.to_json();
        assert!(j.contains(r#"he said \"no\"\n"#), "{j}");
    }

    #[test]
    fn json_round_trips_exactly() {
        let mut r = report(AttackResult::ExactKey(vec![true, false, true]));
        r.wall = Duration::from_millis(1500);
        r.functionally_correct = Some(true);
        r.miter_stats.conflicts = 42;
        r.finder_stats.propagations = 9;
        r.iteration_stats.push(IterationStats {
            iteration: 1,
            wall: Duration::from_millis(250),
            stats: SolverStats {
                decisions: 3,
                conflicts: 42,
                ..SolverStats::default()
            },
            clauses_added: 12,
        });
        let parsed = AttackReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);

        for result in [
            AttackResult::Timeout,
            AttackResult::Failed("oracle said \"no\"\n".into()),
            AttackResult::ApproxKey {
                key: vec![false, true],
                est_error: 0.25,
            },
        ] {
            let r = report(result);
            assert_eq!(AttackReport::from_json(&r.to_json()).unwrap(), r);
        }
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(AttackReport::from_json("{}").is_err());
        assert!(AttackReport::from_json("not json").is_err());
        assert!(AttackReport::from_json(r#"{"result":{"kind":"mystery"}}"#).is_err());
    }
}
