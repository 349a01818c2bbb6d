//! Content-addressed cell cache and run manifests.
//!
//! Each sweep cell (one benchmark × one lock spec × one attack config ×
//! one seed) is addressed by a stable hash of its **full** configuration
//! plus a code-version tag. Finished cells are persisted as they complete,
//! so an interrupted sweep — even one killed with SIGKILL — resumes from
//! the cells already on disk instead of recomputing hours of SAT attacks.
//!
//! Layout under `<out_dir>/cache/`:
//!
//! ```text
//! cache/<fnv1a64-hex>.cell     first line: canonical key string
//!                              remainder:  the cell payload, verbatim
//! ```
//!
//! Writes go through a temp file + `rename`, which is atomic on POSIX:
//! a cell file either exists completely or not at all. The canonical key
//! stored on line 1 guards against the (astronomically unlikely, but
//! cheap to rule out) 64-bit hash collision and doubles as a debugging
//! aid — `head -1` on any cache file says exactly what it holds.

use std::fs;
use std::path::{Path, PathBuf};

use ril_trace::json::{escape, JsonValue};

/// Bumped whenever attack semantics or cell payload encoding change, so
/// stale cells from older code versions can never satisfy a lookup.
pub const CACHE_VERSION: &str = "v1";

/// FNV-1a, 64-bit. Stable across platforms and runs (unlike
/// `DefaultHasher`, whose output is explicitly unspecified across
/// releases), which is what lets cache files survive upgrades until
/// [`CACHE_VERSION`] says otherwise.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A canonical cache key: ordered `name=value` fields under a version tag.
///
/// The canonical string — not the insertion-order-sensitive hash of some
/// struct — is the identity, so two call sites that build the same logical
/// key get the same cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    canonical: String,
}

impl CacheKey {
    /// Starts a key for one experiment.
    #[must_use]
    pub fn new(experiment: &str) -> CacheKey {
        CacheKey {
            canonical: format!("{CACHE_VERSION}|exp={experiment}"),
        }
    }

    /// Appends one `name=value` field. Values containing `|` would break
    /// the canonical form's injectivity, so they are percent-escaped.
    #[must_use]
    pub fn field(mut self, name: &str, value: impl std::fmt::Display) -> CacheKey {
        let v = value.to_string().replace('%', "%25").replace('|', "%7c");
        self.canonical.push_str(&format!("|{name}={v}"));
        self
    }

    /// Parses a canonical key string back into its key: the inverse of
    /// [`CacheKey::new`] + [`CacheKey::field`], so
    /// `CacheKey::parse(k.canonical()) == Ok(k)`.
    ///
    /// # Errors
    ///
    /// Returns a message for a foreign cache version, a missing leading
    /// `exp=` field, a segment that is not `name=value`, or a string that
    /// is not canonical (a value with a bare `%`).
    pub fn parse(canonical: &str) -> Result<CacheKey, String> {
        let mut parts = canonical.split('|');
        let version = parts.next().unwrap_or_default();
        if version != CACHE_VERSION {
            return Err(format!(
                "cell key version {version:?} (this build speaks {CACHE_VERSION:?})"
            ));
        }
        let experiment = parts
            .next()
            .and_then(|p| p.strip_prefix("exp="))
            .ok_or_else(|| format!("key {canonical:?} has no exp= field"))?;
        let mut key = Self::new(experiment);
        for part in parts {
            let (name, value) = part
                .split_once('=')
                .ok_or_else(|| format!("key field {part:?} is not name=value"))?;
            key = key.field(name, unescape(value));
        }
        if key.canonical != canonical {
            return Err(format!("key {canonical:?} is not canonical"));
        }
        Ok(key)
    }

    /// The experiment the key was started for.
    #[must_use]
    pub fn experiment(&self) -> &str {
        let exp = self.canonical.split('|').nth(1).unwrap_or_default();
        exp.strip_prefix("exp=").unwrap_or_default()
    }

    /// The `name=value` fields after `exp=`, in order, values unescaped.
    pub fn fields(&self) -> impl Iterator<Item = (&str, String)> + '_ {
        self.canonical
            .split('|')
            .skip(2)
            .filter_map(|p| p.split_once('='))
            .map(|(name, value)| (name, unescape(value)))
    }

    /// The canonical key string.
    #[must_use]
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// The content hash, as a fixed-width hex file stem.
    #[must_use]
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", fnv1a64(self.canonical.as_bytes()))
    }
}

/// The inverse of [`CacheKey::field`]'s value escaping.
fn unescape(v: &str) -> String {
    v.replace("%7c", "|").replace("%25", "%")
}

/// The on-disk cell cache for one run directory.
pub struct CellCache {
    dir: PathBuf,
    enabled: bool,
}

impl CellCache {
    /// A cache rooted at `<out_dir>/cache`. With `enabled = false` every
    /// lookup misses and every store is dropped (the `--no-cache` path).
    #[must_use]
    pub fn new(out_dir: &Path, enabled: bool) -> CellCache {
        CellCache {
            dir: out_dir.join("cache"),
            enabled,
        }
    }

    /// Where `key`'s cell lives (whether or not it exists yet).
    #[must_use]
    pub fn path_for(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{}.cell", key.hash_hex()))
    }

    /// Fetches the payload for `key`, if a completed cell is on disk and
    /// its stored canonical key matches (hash-collision guard).
    #[must_use]
    pub fn get(&self, key: &CacheKey) -> Option<String> {
        if !self.enabled {
            return None;
        }
        let text = fs::read_to_string(self.path_for(key)).ok()?;
        let (stored_key, payload) = text.split_once('\n')?;
        if stored_key != key.canonical() {
            return None;
        }
        Some(payload.to_string())
    }

    /// Persists `payload` for `key` atomically (temp file + rename), so a
    /// kill at any instant leaves either the complete cell or nothing.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; callers treat a failed store as
    /// non-fatal (the cell was still computed).
    pub fn put(&self, key: &CacheKey, payload: &str) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        fs::create_dir_all(&self.dir)?;
        let final_path = self.path_for(key);
        let tmp_path = self
            .dir
            .join(format!(".tmp-{}-{}", key.hash_hex(), std::process::id()));
        fs::write(&tmp_path, format!("{}\n{payload}", key.canonical()))?;
        fs::rename(&tmp_path, &final_path)
    }

    /// Number of completed cells currently on disk.
    #[must_use]
    pub fn len(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "cell"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether no completed cells are on disk.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The record of one experiment run: configuration, cell accounting, and
/// wall time. Written to `<out_dir>/MANIFEST_<experiment>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Experiment name.
    pub experiment: String,
    /// The [`crate::config::RunConfig`] as JSON, verbatim.
    pub config_json: String,
    /// Cells served from the cache.
    pub cached_cells: usize,
    /// Cells computed this run.
    pub computed_cells: usize,
    /// Cells that failed (recoverable; recorded, not cached).
    pub failed_cells: usize,
    /// Total wall-clock seconds for the run.
    pub wall_s: f64,
    /// Whether the run completed (`false` only in manifests from crashed
    /// runs, which are never written — present for forward compatibility).
    pub completed: bool,
    /// Farm-phase telemetry as a JSON object (counters + latency
    /// histograms), when the run used `--workers N`. `None` for ordinary
    /// in-process runs, and absent from their JSON.
    pub farm: Option<String>,
}

impl Manifest {
    /// Serializes to a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let farm = self
            .farm
            .as_ref()
            .map(|f| format!(r#","farm":{f}"#))
            .unwrap_or_default();
        format!(
            r#"{{"experiment":"{}","cache_version":"{CACHE_VERSION}","config":{},"cached_cells":{},"computed_cells":{},"failed_cells":{},"wall_s":{:.3},"completed":{}{farm}}}"#,
            escape(&self.experiment),
            self.config_json,
            self.cached_cells,
            self.computed_cells,
            self.failed_cells,
            self.wall_s,
            self.completed,
        )
    }

    /// Parses a manifest back from JSON.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn from_json(text: &str) -> Result<Manifest, String> {
        let v = JsonValue::parse(text).map_err(|e| e.to_string())?;
        let str_field = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("manifest missing string field {name:?}"))
        };
        let count_field = |name: &str| -> Result<usize, String> {
            v.get(name)
                .and_then(JsonValue::as_u64)
                .map(|n| n as usize)
                .ok_or_else(|| format!("manifest missing count field {name:?}"))
        };
        // `config` is kept as raw text by re-parsing position-free: we
        // only need it verbatim for display, so re-serialize the subtree
        // is unnecessary — store the whole original text's `config`
        // object by slicing is fragile; instead rebuild a minimal form.
        let config = v
            .get("config")
            .ok_or_else(|| "manifest missing config".to_string())?;
        Ok(Manifest {
            experiment: str_field("experiment")?,
            config_json: render(config),
            cached_cells: count_field("cached_cells")?,
            computed_cells: count_field("computed_cells")?,
            failed_cells: count_field("failed_cells")?,
            wall_s: v
                .get("wall_s")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| "manifest missing wall_s".to_string())?,
            completed: v
                .get("completed")
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| "manifest missing completed".to_string())?,
            farm: v.get("farm").map(render),
        })
    }

    /// The manifest path for `experiment` under `out_dir`.
    #[must_use]
    pub fn path_for(out_dir: &Path, experiment: &str) -> PathBuf {
        out_dir.join(format!("MANIFEST_{experiment}.json"))
    }
}

/// Re-renders a parsed [`JsonValue`] as compact JSON (used to round-trip
/// the embedded config object, whose exact key order we control anyway).
fn render(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Int(i) => i.to_string(),
        JsonValue::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 1e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        JsonValue::Str(s) => format!("\"{}\"", escape(s)),
        JsonValue::Arr(items) => {
            let inner: Vec<String> = items.iter().map(render).collect();
            format!("[{}]", inner.join(","))
        }
        JsonValue::Obj(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, val)| format!("\"{}\":{}", escape(k), render(val)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ril_cache_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fnv_is_stable() {
        // Known FNV-1a 64 vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn key_fields_are_injective() {
        let a = CacheKey::new("t").field("x", "1|y=2");
        let b = CacheKey::new("t").field("x", "1").field("y", "2");
        assert_ne!(a.canonical(), b.canonical());
    }

    #[test]
    fn parse_round_trips_canonical_strings() {
        let original = CacheKey::new("attack")
            .field("kind", "sat")
            .field("bench", "weird|name%x")
            .field("blocks", 3);
        let parsed = CacheKey::parse(original.canonical()).unwrap();
        assert_eq!(parsed, original);
        assert_eq!(parsed.experiment(), "attack");
        let fields: Vec<(&str, String)> = parsed.fields().collect();
        assert_eq!(
            fields,
            vec![
                ("kind", "sat".to_string()),
                ("bench", "weird|name%x".to_string()),
                ("blocks", "3".to_string()),
            ]
        );
    }

    #[test]
    fn parse_rejects_malformed_keys() {
        let no_exp = format!("{CACHE_VERSION}|kind=sat|bench=c17");
        assert!(CacheKey::parse(&no_exp).unwrap_err().contains("exp="));
        assert!(CacheKey::parse(CACHE_VERSION).is_err());
        assert!(CacheKey::parse("v0|exp=attack").is_err());
        assert!(CacheKey::parse(&format!("{CACHE_VERSION}|exp=attack|kind")).is_err());
        // A bare `%` is never produced by `field`.
        assert!(CacheKey::parse(&format!("{CACHE_VERSION}|exp=attack|x=5%")).is_err());
    }

    #[test]
    fn cache_round_trips_payload() {
        let dir = temp_dir("roundtrip");
        let cache = CellCache::new(&dir, true);
        let key = CacheKey::new("table1")
            .field("bench", "c432")
            .field("seed", 7);
        assert!(cache.get(&key).is_none());
        cache.put(&key, "line1\nline2").unwrap();
        assert_eq!(cache.get(&key).as_deref(), Some("line1\nline2"));
        assert_eq!(cache.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_mismatch_misses() {
        let dir = temp_dir("mismatch");
        let cache = CellCache::new(&dir, true);
        let key = CacheKey::new("table1").field("seed", 7);
        cache.put(&key, "payload").unwrap();
        // Corrupt the stored canonical key: the lookup must refuse it.
        let path = cache.path_for(&key);
        fs::write(&path, "v0|exp=other\npayload").unwrap();
        assert!(cache.get(&key).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let dir = temp_dir("disabled");
        let cache = CellCache::new(&dir, false);
        let key = CacheKey::new("x").field("a", 1);
        cache.put(&key, "p").unwrap();
        assert!(cache.get(&key).is_none());
        assert!(cache.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_round_trips() {
        let m = Manifest {
            experiment: "table3".to_string(),
            config_json: crate::config::RunConfig::default().to_json(),
            cached_cells: 4,
            computed_cells: 28,
            failed_cells: 1,
            wall_s: 12.5,
            completed: true,
            farm: None,
        };
        let parsed = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(parsed.experiment, "table3");
        assert_eq!(parsed.cached_cells, 4);
        assert_eq!(parsed.computed_cells, 28);
        assert_eq!(parsed.failed_cells, 1);
        assert!(parsed.completed);
        assert!((parsed.wall_s - 12.5).abs() < 1e-9);
        assert!(parsed.farm.is_none());
        assert!(!m.to_json().contains("\"farm\""));

        // A farmed run's snapshot rides along and round-trips.
        let farmed = Manifest {
            farm: Some(r#"{"counters":{"farm.cells.completed":6},"timings":{}}"#.to_string()),
            ..m
        };
        let parsed = Manifest::from_json(&farmed.to_json()).unwrap();
        assert!(parsed.farm.unwrap().contains("farm.cells.completed"));
    }

    #[test]
    fn manifest_rejects_missing_fields() {
        assert!(Manifest::from_json(r#"{"experiment":"x"}"#).is_err());
    }
}
