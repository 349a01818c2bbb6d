//! One typed spec for every cached cell.
//!
//! A [`CellSpec`] is the complete work description of one cacheable
//! attack cell: host, lock, attack and budget. Its canonical [`CacheKey`]
//! is both the cell's cache address and its farm lease, so
//! [`CellSpec::parse`] is the exact inverse of [`CellSpec::key`] (with a
//! round-trip guard), and [`CellSpec::run`] rebuilds the lock from the
//! spec. A worker process needs nothing but the key to reproduce a cell,
//! and the obfuscator is seed-deterministic, so every process that runs
//! the same key reaches the same verdict.
//!
//! Every experiment declares its cells once, as `Experiment::cells`, and
//! reads their outcomes back in plan order from
//! [`crate::RunContext::outcomes`]. A SAT cell's key, for example:
//!
//! ```text
//! v1|exp=attack|kind=sat|bench=c7552|spec=8x8|blocks=2|seed=1002|timeout_s=60|solver_threads=1|search=2
//! ```

use std::str::FromStr;

use ril_attacks::AttackKind;
use ril_core::RilBlockSpec;
use ril_serve::DesignSpec;

use crate::cache::CacheKey;
use crate::experiment::ExperimentError;
use crate::experiments::{dynamic_defense, fig1, lut_scaling, scan_defense, table3, table5};
use crate::CellOutcome;

/// The search generation, the last segment of every cell key. Bump it
/// with any encoder or solver change that alters search (DIPs,
/// conflicts, verdicts): a cell cached by an older search then misses
/// instead of filling a table row with a stale result.
pub const SEARCH: u32 = 2;

/// Table I / Table III: the SAT attack on `blocks` RIL-Blocks of shape
/// `spec` on host `bench`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatCellSpec {
    /// Host name, as [`ril_netlist::generators::by_name`] resolves it
    /// (`c7552`, `b15`, `adder:8`, …).
    pub bench: String,
    /// The RIL block shape.
    pub spec: RilBlockSpec,
    /// Number of blocks inserted.
    pub blocks: usize,
    /// Obfuscator seed.
    pub seed: u64,
    /// Attack budget in whole seconds.
    pub timeout_s: u64,
    /// Always 1: SAT keys keep the `solver_threads=1` segment of the
    /// format's first version, and [`CellSpec::parse`] rejects any other
    /// value.
    pub solver_threads: usize,
}

impl SatCellSpec {
    /// The cell's canonical cache key.
    #[must_use]
    pub fn key(&self) -> CacheKey {
        CellSpec::Sat(self.clone()).key()
    }
}

/// A RIL lock under attack: `blocks` blocks of shape `spec` on host
/// `bench`, obfuscator seed `seed`, attack budget `timeout_s` seconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockCell {
    /// Host name, as [`ril_netlist::generators::by_name`] resolves it.
    pub bench: String,
    /// Block shape, Scan-Enable flag included.
    pub spec: RilBlockSpec,
    /// Number of blocks.
    pub blocks: usize,
    /// Obfuscator seed.
    pub seed: u64,
    /// Attack budget in whole seconds.
    pub timeout_s: u64,
}

/// `attack` against a fixed design: a Table V scheme token, or whether
/// `scan_defense`'s Scan-Enable stage is armed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackCell<T> {
    /// The attack.
    pub attack: AttackKind,
    /// The design attacked.
    pub design: T,
    /// Attack budget in whole seconds.
    pub timeout_s: u64,
}

/// `lut_scaling`'s plain LUT locking: `luts` LUT-`m`s on host `bench`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LutMCell {
    /// Host name.
    pub bench: String,
    /// Number of LUTs inserted.
    pub luts: usize,
    /// LUT input count.
    pub m: usize,
    /// Lock seed.
    pub seed: u64,
    /// Attack budget in whole seconds.
    pub timeout_s: u64,
}

/// Fig. 1: `devices` gates of host `bench` replaced by polymorphic
/// devices in the MESO or the LUT-2 encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodingCell {
    /// Host name.
    pub bench: String,
    /// Number of gates replaced.
    pub devices: usize,
    /// MESO form (`true`) or LUT-2 form.
    pub meso: bool,
    /// Attack budget in whole seconds.
    pub timeout_s: u64,
}

/// `dynamic_defense`: the SAT attack over `ril-serve` on a chip that
/// morphs every `morph_queries` queries (`None` = never). The key omits
/// the design's `scan` and `zero_se` flags: every morph cell attacks a
/// scan lock provisioned transparent, and `parse` sets both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MorphCell {
    /// The served chip.
    pub design: DesignSpec,
    /// Morph period in queries.
    pub morph_queries: Option<u64>,
    /// Attack budget in whole seconds.
    pub timeout_s: u64,
}

/// Every kind of cached cell the experiments run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellSpec {
    /// Table I / Table III SAT cells.
    Sat(SatCellSpec),
    /// Table III's AppSAT column: AppSAT against an armed SE lock.
    AppSatSe(LockCell),
    /// One Table V cell: an attack against a locking scheme.
    Matrix(AttackCell<String>),
    /// One `scan_defense` cell: an attack against the 3 × 2x2 lock of
    /// the 6-bit multiplier, its SE stage armed or not.
    ScanDefense(AttackCell<bool>),
    /// `lut_scaling`'s plain LUT locking.
    LutM(LutMCell),
    /// `lut_scaling`'s RIL-Block width sweep.
    RilWidth(LockCell),
    /// Fig. 1's encoding comparison.
    Fig1(EncodingCell),
    /// `dynamic_defense`'s morphing oracle.
    Morph(MorphCell),
}

impl CellSpec {
    /// The cell's canonical cache key: exactly the fields its kind
    /// names, then `search=`[`SEARCH`].
    #[must_use]
    pub fn key(&self) -> CacheKey {
        let attack = |kind: &str| CacheKey::new("attack").field("kind", kind);
        let lock = |kind, bench: &str, spec: RilBlockSpec, blocks, seed, timeout_s| {
            attack(kind)
                .field("bench", bench)
                .field("spec", spec.cache_token())
                .field("blocks", blocks)
                .field("seed", seed)
                .field("timeout_s", timeout_s)
        };
        match self {
            CellSpec::Sat(c) => lock("sat", &c.bench, c.spec, c.blocks, c.seed, c.timeout_s)
                .field("solver_threads", c.solver_threads),
            CellSpec::AppSatSe(c) => {
                lock("appsat_se", &c.bench, c.spec, c.blocks, c.seed, c.timeout_s)
            }
            CellSpec::Matrix(c) => attack(c.attack.name())
                .field("scheme", &c.design)
                .field("timeout_s", c.timeout_s),
            CellSpec::ScanDefense(c) => {
                let spec = RilBlockSpec::size_2x2().with_scan(c.design);
                lock(c.attack.name(), "mult6x6", spec, 3, 21, c.timeout_s)
            }
            CellSpec::LutM(c) => attack("sat_lutm")
                .field("bench", &c.bench)
                .field("luts", c.luts)
                .field("m", c.m)
                .field("seed", c.seed)
                .field("timeout_s", c.timeout_s),
            CellSpec::RilWidth(c) => lock(
                "sat_ril_width",
                &c.bench,
                c.spec,
                c.blocks,
                c.seed,
                c.timeout_s,
            ),
            CellSpec::Fig1(c) => attack("fig1_encoding")
                .field("bench", &c.bench)
                .field("devices", c.devices)
                .field("meso", c.meso)
                .field("timeout_s", c.timeout_s),
            CellSpec::Morph(c) => CacheKey::new("dynamic_defense")
                .field("bench", &c.design.benchmark)
                .field("spec", &c.design.spec)
                .field("blocks", c.design.blocks)
                .field("seed", c.design.seed)
                .field("morph_queries", c.morph_queries.unwrap_or(0))
                .field("timeout_s", c.timeout_s),
        }
        .field("search", SEARCH)
    }

    /// Parses a canonical key back into its cell.
    ///
    /// # Errors
    ///
    /// Returns a message for any key this build cannot run: a foreign
    /// cache version, an unknown kind, a missing or malformed field,
    /// `solver_threads` other than 1, a search generation other than
    /// [`SEARCH`], or a key the parsed spec would not write back
    /// bit-identically (a trailing or misplaced field, a non-canonical
    /// value). A farm worker reports such cells as failed rather than
    /// guessing.
    pub fn parse(canonical: &str) -> Result<CellSpec, String> {
        let key = CacheKey::parse(canonical)?;
        let f = Fields(key.fields().collect());
        let search: u32 = f.get("search")?;
        if search != SEARCH {
            return Err(format!(
                "search={search}: cached by another search (this build's is {SEARCH})"
            ));
        }
        if let Ok(threads) = f.get::<String>("solver_threads") {
            if threads != "1" {
                return Err(format!(
                    "solver_threads={threads} (cells solve on one thread; only 1 is accepted)"
                ));
            }
        }
        let kind: String = f.get("kind").unwrap_or_default();
        let parsed = match (key.experiment(), kind.as_str()) {
            ("attack", "sat") if f.has("solver_threads") => CellSpec::Sat(SatCellSpec {
                bench: f.get("bench")?,
                spec: f.spec()?,
                blocks: f.get("blocks")?,
                seed: f.get("seed")?,
                timeout_s: f.get("timeout_s")?,
                solver_threads: 1,
            }),
            ("attack", _) if f.has("scheme") => CellSpec::Matrix(AttackCell {
                attack: f.attack()?,
                design: f.get("scheme")?,
                timeout_s: f.get("timeout_s")?,
            }),
            ("attack", "sat" | "appsat" | "scansat") => CellSpec::ScanDefense(AttackCell {
                attack: f.attack()?,
                design: f.spec()?.scan_obfuscation,
                timeout_s: f.get("timeout_s")?,
            }),
            ("attack", "appsat_se") => CellSpec::AppSatSe(f.lock()?),
            ("attack", "sat_ril_width") => CellSpec::RilWidth(f.lock()?),
            ("attack", "sat_lutm") => CellSpec::LutM(LutMCell {
                bench: f.get("bench")?,
                luts: f.get("luts")?,
                m: f.get("m")?,
                seed: f.get("seed")?,
                timeout_s: f.get("timeout_s")?,
            }),
            ("attack", "fig1_encoding") => CellSpec::Fig1(EncodingCell {
                bench: f.get("bench")?,
                devices: f.get("devices")?,
                meso: f.get("meso")?,
                timeout_s: f.get("timeout_s")?,
            }),
            ("dynamic_defense", "") => CellSpec::Morph(MorphCell {
                design: DesignSpec {
                    benchmark: f.get("bench")?,
                    spec: f.get("spec")?,
                    blocks: f.get("blocks")?,
                    seed: f.get("seed")?,
                    scan: true,
                    zero_se: true,
                },
                morph_queries: Some(f.get("morph_queries")?).filter(|&k| k > 0),
                timeout_s: f.get("timeout_s")?,
            }),
            (exp, kind) => return Err(format!("unsupported cell kind {exp}/{kind:?}")),
        };
        // Round-trip guard: a key this spec would not write back
        // bit-identically would cache its result under another address.
        let rebuilt = parsed.key();
        if rebuilt.canonical() != canonical {
            return Err(format!(
                "key does not round-trip: {canonical:?} != {:?}",
                rebuilt.canonical()
            ));
        }
        Ok(parsed)
    }

    /// A short human name for the cell (events, trace spans).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            CellSpec::Sat(c) => format!("{} {}×{}", c.bench, c.blocks, c.spec.cache_token()),
            CellSpec::AppSatSe(c) => format!("{} appsat/SE", c.bench),
            CellSpec::Matrix(c) => format!("{} / {}", c.design, c.attack),
            CellSpec::ScanDefense(c) => {
                format!("{} / {}", scan_defense::design_name(c.design), c.attack)
            }
            CellSpec::LutM(c) => format!("{} × LUT-{}", c.luts, c.m),
            CellSpec::RilWidth(c) => format!("{} × {}", c.blocks, c.spec),
            CellSpec::Fig1(c) => {
                let form = if c.meso { "MESO" } else { "LUT-2" };
                format!("{} devices, {form}", c.devices)
            }
            CellSpec::Morph(c) => format!(
                "{} / morph {}",
                c.design.benchmark,
                dynamic_defense::period_label(c.morph_queries)
            ),
        }
    }

    /// Runs the cell: builds the host, locks it, attacks it within the
    /// budget, and renders the table cell.
    ///
    /// # Errors
    ///
    /// Returns unknown hosts and lock or attack failures; the caller
    /// renders them as `err:…` cells.
    pub fn run(&self) -> Result<CellOutcome, ExperimentError> {
        match self {
            CellSpec::Sat(c) => crate::sat_cell(c),
            CellSpec::AppSatSe(c) => table3::appsat_cell(c),
            CellSpec::Matrix(c) => table5::matrix_cell(c),
            CellSpec::ScanDefense(c) => scan_defense::attack_cell(c),
            CellSpec::LutM(c) => lut_scaling::lutm_cell(c),
            CellSpec::RilWidth(c) => lut_scaling::width_cell(c),
            CellSpec::Fig1(c) => fig1::encoding_cell(c),
            CellSpec::Morph(c) => dynamic_defense::morph_cell(c),
        }
    }
}

/// A parsed key's `name=value` fields, read by name.
struct Fields<'a>(Vec<(&'a str, String)>);

impl Fields<'_> {
    fn has(&self, name: &str) -> bool {
        self.get::<String>(name).is_ok()
    }

    fn get<T: FromStr>(&self, name: &str) -> Result<T, String> {
        let (_, value) = self
            .0
            .iter()
            .find(|(n, _)| *n == name)
            .ok_or_else(|| format!("key has no {name}= field"))?;
        value
            .parse()
            .map_err(|_| format!("bad value {name}={value}"))
    }

    fn attack(&self) -> Result<AttackKind, String> {
        let kind: String = self.get("kind")?;
        AttackKind::parse(&kind).ok_or_else(|| format!("unknown attack kind {kind:?}"))
    }

    /// The `spec=` block shape; a `+se` suffix sets the Scan-Enable flag.
    fn spec(&self) -> Result<RilBlockSpec, String> {
        let token: String = self.get("spec")?;
        let (shape, scan) = match token.strip_suffix("+se") {
            Some(shape) => (shape, true),
            None => (token.as_str(), false),
        };
        RilBlockSpec::parse(shape)
            .map(|s| s.with_scan(scan))
            .ok_or_else(|| format!("bad spec token {token:?}"))
    }

    fn lock(&self) -> Result<LockCell, String> {
        Ok(LockCell {
            bench: self.get("bench")?,
            spec: self.spec()?,
            blocks: self.get("blocks")?,
            seed: self.get("seed")?,
            timeout_s: self.get("timeout_s")?,
        })
    }
}
