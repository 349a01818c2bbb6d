//! Integration tests for the experiment framework: cache key semantics
//! (and their trace in the span log), resume-after-partial-run, and the
//! headline acceptance property — a
//! `ril-bench run table1` killed mid-sweep (SIGKILL) and re-invoked
//! completes from cached cells, strictly faster than a cold run.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ril_bench::experiment::{find, run_experiments, Experiment, RunContext};
use ril_bench::experiment::{ExperimentError, ExperimentOutput};
use ril_bench::{CellCache, CellSpec, Manifest, RunConfig, SatCellSpec};
use ril_core::RilBlockSpec;
use ril_trace::json::JsonValue;

fn temp_out(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ril_bench_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn test_config(out_dir: &Path) -> RunConfig {
    RunConfig {
        timeout: Duration::from_secs(2),
        threads: 2,
        out_dir: out_dir.to_path_buf(),
        table1_full: false,
        mc_instances: 10,
        smoke: true,
        use_cache: true,
        log_level: ril_bench::LogLevel::Off,
    }
}

fn read_manifest(out_dir: &Path, experiment: &str) -> Manifest {
    let text =
        std::fs::read_to_string(Manifest::path_for(out_dir, experiment)).expect("manifest exists");
    Manifest::from_json(&text).expect("manifest parses")
}

/// An experiment over one SAT cell.
struct OneCell(SatCellSpec);

impl Experiment for OneCell {
    fn name(&self) -> &'static str {
        "one_cell"
    }

    fn describe(&self) -> &'static str {
        "one SAT cell (test-only)"
    }

    fn run(&self, _cfg: &RunConfig, ctx: &RunContext) -> Result<ExperimentOutput, ExperimentError> {
        let outcomes = ctx.outcomes(&[CellSpec::Sat(self.0.clone())], 1);
        Ok(ExperimentOutput::summary(outcomes[0].cell.clone()))
    }
}

#[test]
fn cache_hits_on_identical_config_and_misses_on_any_change() {
    let cell = SatCellSpec {
        bench: "c7552".to_string(),
        spec: RilBlockSpec::size_8x8(),
        blocks: 3,
        seed: 7,
        timeout_s: 60,
        solver_threads: 1,
    };
    let (base, same) = (cell.key(), cell.clone().key());
    assert_eq!(base.canonical(), same.canonical());
    assert_eq!(base.hash_hex(), same.hash_hex());

    // Any coordinate change must produce a different cell identity.
    let variants = [
        SatCellSpec {
            spec: RilBlockSpec::size_2x2(),
            ..cell.clone()
        },
        SatCellSpec {
            spec: RilBlockSpec::size_8x8().with_scan(true),
            ..cell.clone()
        },
        SatCellSpec {
            blocks: 4,
            ..cell.clone()
        },
        SatCellSpec {
            seed: 8,
            ..cell.clone()
        },
        SatCellSpec {
            timeout_s: 61,
            ..cell.clone()
        },
        SatCellSpec {
            bench: "b15".to_string(),
            ..cell
        },
    ]
    .map(|v| v.key());
    for (i, v) in variants.iter().enumerate() {
        assert_ne!(
            base.canonical(),
            v.canonical(),
            "variant {i} should change the key"
        );
    }

    // And the on-disk cache agrees: a stored cell only answers its own key.
    let dir = temp_out("keying");
    let cache = CellCache::new(&dir, true);
    cache.put(&base, "payload").unwrap();
    assert_eq!(cache.get(&base).as_deref(), Some("payload"));
    assert_eq!(cache.get(&same).as_deref(), Some("payload"));
    for v in &variants {
        assert!(cache.get(v).is_none());
    }
    let _ = std::fs::remove_dir_all(&dir);

    // A second run of the same cell is a cache hit, and its `cell` span
    // in the span log says so.
    let dir = temp_out("keying_run");
    let cheap = SatCellSpec {
        bench: "adder:8".to_string(),
        spec: RilBlockSpec::size_2x2(),
        blocks: 1,
        seed: 3,
        timeout_s: 30,
        solver_threads: 1,
    };
    let exps: Vec<Box<dyn Experiment>> = vec![Box::new(OneCell(cheap))];
    for cached in [false, true] {
        let records = run_experiments(&exps, &test_config(&dir));
        assert!(records[0].outcome.is_ok(), "{:?}", records[0].outcome);
        let text = std::fs::read_to_string(dir.join("SPANS_one_cell.jsonl")).unwrap();
        let stats = ril_trace::check_spans_jsonl(&text).unwrap();
        let cells: Vec<_> = stats.spans.iter().filter(|s| s.name == "cell").collect();
        assert_eq!(cells.len(), 1);
        assert_eq!(
            cells[0].fields.get("cached").and_then(JsonValue::as_bool),
            Some(cached)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_after_partial_run_reuses_surviving_cells() {
    let dir = temp_out("partial");
    let cfg = test_config(&dir);
    let exps: Vec<Box<dyn Experiment>> = vec![find("scan_defense").expect("registered")];

    // Cold run: everything computed.
    let records = run_experiments(&exps, &cfg);
    assert!(records[0].outcome.is_ok(), "{:?}", records[0].outcome);
    let cold = read_manifest(&dir, "scan_defense");
    assert_eq!(cold.cached_cells, 0);
    assert!(cold.computed_cells >= 4, "expected a real sweep");

    // Simulate an interrupted sweep: delete half the finished cells.
    let cache_dir = dir.join("cache");
    let mut cells: Vec<PathBuf> = std::fs::read_dir(&cache_dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "cell"))
        .collect();
    cells.sort();
    let half = cells.len() / 2;
    for path in &cells[..half] {
        std::fs::remove_file(path).unwrap();
    }

    // Resumed run: the survivors are served from cache, the rest recomputed.
    let records = run_experiments(&exps, &cfg);
    assert!(records[0].outcome.is_ok(), "{:?}", records[0].outcome);
    let resumed = read_manifest(&dir, "scan_defense");
    assert!(
        resumed.cached_cells > 0,
        "survivors should hit: {resumed:?}"
    );
    assert!(
        resumed.computed_cells > 0,
        "deleted cells recompute: {resumed:?}"
    );
    assert_eq!(
        resumed.cached_cells + resumed.computed_cells,
        cold.computed_cells
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn spawn_table1(out_dir: &Path) -> Child {
    // --smoke caps RIL_TIMEOUT_SECS at 3 s; the sweep is 6 cells (2 block
    // counts × 3 specs) whose 8x8x8 cells reliably run multi-second, so
    // killing after 4 finished cells lands mid-sweep with seconds of
    // margin on both sides.
    Command::new(env!("CARGO_BIN_EXE_ril-bench"))
        .args(["run", "--smoke", "table1"])
        .env("RIL_OUT_DIR", out_dir)
        .env("RIL_TIMEOUT_SECS", "3")
        .env("RIL_THREADS", "2")
        .env_remove("RIL_TABLE1_FULL")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ril-bench")
}

#[test]
fn sigkilled_table1_resumes_from_cache_and_beats_a_cold_run() {
    // Baseline: a cold, uninterrupted run.
    let cold_dir = temp_out("t1_cold");
    let status = spawn_table1(&cold_dir).wait().expect("wait");
    assert!(status.success());
    let cold = read_manifest(&cold_dir, "table1");
    assert!(cold.completed);
    assert_eq!(cold.cached_cells, 0);
    assert!(cold.computed_cells > 0);

    // Interrupted run: SIGKILL the sweep once at least one cell landed on
    // disk — no destructors, no flushing, the hardest interruption there is.
    let kill_dir = temp_out("t1_kill");
    let mut child = spawn_table1(&kill_dir);
    let cache = CellCache::new(&kill_dir, true);
    let deadline = Instant::now() + Duration::from_secs(240);
    // Kill only once most of the sweep is durable, so the resumed run's
    // saving dwarfs process-startup noise in the wall-clock comparison.
    let kill_after = (cold.computed_cells * 2).div_ceil(3);
    loop {
        if cache.len() >= kill_after {
            break;
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            panic!("run finished (status {status}) before the test could kill it mid-sweep");
        }
        assert!(
            Instant::now() < deadline,
            "fewer than {kill_after} cells completed within 240s"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    child.kill().expect("SIGKILL");
    let _ = child.wait();
    assert!(
        !Manifest::path_for(&kill_dir, "table1").exists(),
        "a killed run must not have written a manifest"
    );
    let survivors = cache.len();
    assert!(survivors >= 1);

    // Re-invocation completes, reports the survivors as cache hits, and is
    // strictly faster than the cold baseline.
    let status = spawn_table1(&kill_dir).wait().expect("wait");
    assert!(status.success());
    let resumed = read_manifest(&kill_dir, "table1");
    assert!(resumed.completed);
    assert!(
        resumed.cached_cells > 0,
        "resume must reuse the killed run's cells: {resumed:?}"
    );
    assert_eq!(
        resumed.cached_cells + resumed.computed_cells,
        cold.computed_cells,
        "resume must cover exactly the cold run's cell set"
    );
    assert!(
        resumed.wall_s < cold.wall_s,
        "resumed run ({:.3}s) must beat the cold run ({:.3}s)",
        resumed.wall_s,
        cold.wall_s
    );

    let _ = std::fs::remove_dir_all(&cold_dir);
    let _ = std::fs::remove_dir_all(&kill_dir);
}
