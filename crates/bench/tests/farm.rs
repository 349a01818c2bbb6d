//! End-to-end tests for the distributed experiment farm: lease
//! lifecycle over a real socket, crash recovery, worker processes, and
//! first-write-wins artifact idempotence.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ril_bench::cache::{CacheKey, CellCache};
use ril_bench::experiments::sat_cell_key;
use ril_bench::farm::coordinator::{Coordinator, FarmConfig, FarmHandle};
use ril_bench::farm::{run_worker, SatCellSpec, WorkerConfig};
use ril_core::RilBlockSpec;
use ril_serve::farm::{FarmRequest, FarmResponse};
use ril_serve::{read_frame_bytes, write_frame_bytes, WireCodec};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ril_farm_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Fast cells: tiny adders fall to the SAT attack in milliseconds.
fn tiny_cells(n: usize) -> Vec<CacheKey> {
    (0..n)
        .map(|i| {
            sat_cell_key(
                &format!("adder:{}", 4 + i),
                RilBlockSpec::size_2x2(),
                1,
                3 + i as u64,
                Duration::from_secs(10),
            )
        })
        .collect()
}

fn start_farm(dir: &Path, cells: Vec<CacheKey>, lease: Duration) -> FarmHandle {
    Coordinator::start(
        cells,
        CellCache::new(dir, true),
        FarmConfig {
            bind: "127.0.0.1:0".to_string(),
            lease,
            trace: None,
        },
    )
    .unwrap()
}

/// A hand-rolled farm client, used to script exact wire scenarios
/// (including misbehaving ones `run_worker` would never produce).
struct Scripted {
    stream: TcpStream,
}

impl Scripted {
    fn connect(handle: &FarmHandle) -> Scripted {
        Scripted {
            stream: TcpStream::connect(handle.addr()).unwrap(),
        }
    }

    fn call(&mut self, req: &FarmRequest) -> FarmResponse {
        self.send_raw(&req.encode().unwrap())
    }

    /// Sends an arbitrary payload as one frame and decodes the answer.
    fn send_raw(&mut self, payload: &[u8]) -> FarmResponse {
        write_frame_bytes(&mut self.stream, payload).unwrap();
        let answer = read_frame_bytes(&mut self.stream).unwrap();
        FarmResponse::decode(&answer).unwrap()
    }
}

fn wait_settled(handle: &FarmHandle, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    while !handle.is_settled() {
        assert!(
            Instant::now() < deadline,
            "farm did not settle in {timeout:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn counter(handle: &FarmHandle, name: &str) -> u64 {
    handle
        .snapshot()
        .counters
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0, |(_, v)| *v)
}

#[test]
fn duplicate_completion_leaves_the_first_artifact_bit_identical() {
    let dir = temp_dir("dup");
    let cells = tiny_cells(1);
    let key = cells[0].clone();
    let mut handle = start_farm(&dir, cells, Duration::from_secs(30));
    let mut client = Scripted::connect(&handle);

    let welcome = client.call(&FarmRequest::Join {
        worker: "a".into(),
        version: 1,
    });
    assert!(matches!(welcome, FarmResponse::Welcome { lease_ms, .. } if lease_ms == 30_000));

    let grant = match client.call(&FarmRequest::Lease {
        worker: "a".into(),
        max: 1,
    }) {
        FarmResponse::Leases { mut leases, .. } => leases.remove(0),
        other => panic!("expected leases, got {other:?}"),
    };
    assert_eq!(grant.key, key.canonical());

    // First completion wins and is persisted verbatim.
    let first = r#"{"cell":"0.5","report":null}"#;
    let resp = client.call(&FarmRequest::Complete {
        worker: "a".into(),
        lease_id: grant.lease_id,
        key: grant.key.clone(),
        payload: first.to_string(),
        wall_us: 500,
    });
    assert!(
        matches!(
            resp,
            FarmResponse::Accepted {
                duplicate: false,
                stolen: false,
                ..
            }
        ),
        "fresh completion, got {resp:?}"
    );
    let cache = CellCache::new(&dir, true);
    let on_disk = std::fs::read(cache.path_for(&key)).unwrap();

    // A second completion with a *different* payload is dropped:
    // accepted as duplicate, disk bytes untouched.
    let resp = client.call(&FarmRequest::Complete {
        worker: "b".into(),
        lease_id: grant.lease_id,
        key: grant.key.clone(),
        payload: r#"{"cell":"9.9","report":null}"#.to_string(),
        wall_us: 9,
    });
    assert!(
        matches!(
            resp,
            FarmResponse::Accepted {
                duplicate: true,
                ..
            }
        ),
        "replayed completion must be flagged duplicate, got {resp:?}"
    );
    assert_eq!(
        std::fs::read(cache.path_for(&key)).unwrap(),
        on_disk,
        "first write wins: the cached artifact must be bit-identical"
    );
    assert_eq!(counter(&handle, "farm.cells.completed"), 1);
    assert_eq!(counter(&handle, "farm.cells.duplicate"), 1);
    assert!(handle.is_settled());
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_payloads_never_reach_the_cache() {
    let dir = temp_dir("badpayload");
    let cells = tiny_cells(1);
    let key = cells[0].clone();
    let mut handle = start_farm(&dir, cells, Duration::from_secs(30));
    let mut client = Scripted::connect(&handle);
    let grant = match client.call(&FarmRequest::Lease {
        worker: "a".into(),
        max: 1,
    }) {
        FarmResponse::Leases { mut leases, .. } => leases.remove(0),
        other => panic!("expected leases, got {other:?}"),
    };
    let resp = client.call(&FarmRequest::Complete {
        worker: "a".into(),
        lease_id: grant.lease_id,
        key: grant.key,
        payload: "not json at all".to_string(),
        wall_us: 1,
    });
    assert!(matches!(resp, FarmResponse::FarmError { .. }));
    assert!(CellCache::new(&dir, true).get(&key).is_none());
    assert!(!handle.is_settled(), "the cell must stay open for a peer");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Asserts `resp` is a `FarmError` whose message contains `needle`.
fn assert_farm_error(resp: FarmResponse, needle: &str) {
    match resp {
        FarmResponse::FarmError { message } => {
            assert!(message.contains(needle), "{message}")
        }
        other => panic!("expected a farm error, got {other:?}"),
    }
}

#[test]
fn json_frames_get_a_binary_farm_error_and_keep_the_stream() {
    let dir = temp_dir("jsonframe");
    let mut handle = start_farm(&dir, tiny_cells(1), Duration::from_secs(30));
    let mut client = Scripted::connect(&handle);
    let resp = client.send_raw(br#"{"op":"farm.lease","worker":"a","max":1}"#);
    assert_farm_error(resp, "magic");
    // The length prefix was intact: the same connection still leases.
    let resp = client.call(&FarmRequest::Lease {
        worker: "a".into(),
        max: 1,
    });
    assert!(matches!(resp, FarmResponse::Leases { ref leases, .. } if leases.len() == 1));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_version_bytes_get_a_farm_error_naming_the_version() {
    let dir = temp_dir("version");
    let mut handle = start_farm(&dir, tiny_cells(1), Duration::from_secs(30));
    let mut client = Scripted::connect(&handle);
    let join = FarmRequest::Join {
        worker: "a".into(),
        version: 1,
    };
    let mut frame = join.encode().unwrap();
    assert_eq!(frame[1], ril_serve::PROTOCOL_VERSION);
    frame[1] = 2;
    assert_farm_error(client.send_raw(&frame), "version 2");
    assert!(matches!(client.call(&join), FarmResponse::Welcome { .. }));
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_in_process_workers_drain_a_sweep_into_the_cache() {
    let dir = temp_dir("drain");
    let cells = tiny_cells(6);
    let mut handle = start_farm(&dir, cells.clone(), Duration::from_secs(30));
    let addr = handle.addr().to_string();

    let workers: Vec<_> = (0..2)
        .map(|i| {
            let cfg = WorkerConfig {
                connect: addr.clone(),
                name: format!("w{i}"),
                codec: WireCodec::Bin,
                poll: Duration::from_millis(20),
            };
            std::thread::spawn(move || run_worker(&cfg).unwrap())
        })
        .collect();
    wait_settled(&handle, Duration::from_secs(60));
    handle.shutdown();
    let summaries: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    let total: usize = summaries.iter().map(|s| s.completed).sum();
    assert_eq!(total, cells.len(), "every cell completed exactly once");
    assert_eq!(handle.workers_seen(), 2);
    assert_eq!(counter(&handle, "farm.cells.completed"), cells.len() as u64);

    // Every artifact is on disk under its canonical key and parses back
    // into the same outcome shape the in-process path produces.
    let cache = CellCache::new(&dir, true);
    for key in &cells {
        let payload = cache.get(key).unwrap_or_else(|| {
            panic!("cell missing from cache: {}", key.canonical());
        });
        ril_bench::experiment::parse_cell_payload(&payload).unwrap();
        let stored = std::fs::read_to_string(cache.path_for(key)).unwrap();
        assert!(stored.starts_with(&format!("{}\n", key.canonical())));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crashed_leaseholder_is_recovered_by_a_peer_with_valid_artifacts() {
    let dir = temp_dir("crash");
    let cells = tiny_cells(4);
    let mut handle = start_farm(&dir, cells.clone(), Duration::from_millis(400));

    // A worker takes a lease and "crashes": the connection drops with no
    // completion and no heartbeat — indistinguishable from SIGKILL at
    // the coordinator.
    {
        let mut doomed = Scripted::connect(&handle);
        let resp = doomed.call(&FarmRequest::Lease {
            worker: "doomed".into(),
            max: 2,
        });
        assert!(matches!(resp, FarmResponse::Leases { ref leases, .. } if !leases.is_empty()));
    }

    // A healthy peer joins and must finish everything, including the
    // cells the crashed worker still nominally held.
    let cfg = WorkerConfig {
        connect: handle.addr().to_string(),
        name: "survivor".into(),
        codec: WireCodec::Bin,
        poll: Duration::from_millis(20),
    };
    let survivor = std::thread::spawn(move || run_worker(&cfg).unwrap());
    wait_settled(&handle, Duration::from_secs(60));
    handle.shutdown();
    let summary = survivor.join().unwrap();

    assert_eq!(handle.counts().done, cells.len());
    assert_eq!(summary.completed, cells.len());
    assert!(
        counter(&handle, "farm.cells.expired") >= 1,
        "the crashed worker's leases must expire and re-issue"
    );
    let cache = CellCache::new(&dir, true);
    for key in &cells {
        ril_bench::experiment::parse_cell_payload(&cache.get(key).unwrap()).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn spawn_worker_process(addr: &str, name: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_ril-bench"))
        .args(["worker", "--connect", addr, "--name", name])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap()
}

#[test]
fn sigkilled_worker_process_cells_are_finished_by_a_peer_process() {
    let dir = temp_dir("sigkill");
    // One deliberately slow cell (c7552 under 8x8x8 blocks exceeds any
    // 2s budget, per Table I) plus fast ones: the victim worker is
    // reliably mid-cell when the signal lands.
    let mut cells = tiny_cells(2);
    cells.push(sat_cell_key(
        "c7552",
        RilBlockSpec::size_8x8x8(),
        2,
        1002,
        Duration::from_secs(2),
    ));
    let mut handle = start_farm(&dir, cells.clone(), Duration::from_millis(700));
    let addr = handle.addr().to_string();

    let mut victim = spawn_worker_process(&addr, "victim");
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.counts().leased == 0 && !handle.is_settled() {
        assert!(Instant::now() < deadline, "victim never leased a cell");
        std::thread::sleep(Duration::from_millis(10));
    }
    victim.kill().unwrap();
    victim.wait().unwrap();

    let mut peer = spawn_worker_process(&addr, "peer");
    wait_settled(&handle, Duration::from_secs(120));
    handle.shutdown();
    let status = peer.wait().unwrap();
    assert!(status.success(), "peer worker should exit cleanly on done");

    assert_eq!(handle.counts().done, cells.len());
    let cache = CellCache::new(&dir, true);
    for key in &cells {
        let payload = cache.get(key).unwrap_or_else(|| {
            panic!("cell missing from cache: {}", key.canonical());
        });
        ril_bench::experiment::parse_cell_payload(&payload).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn farmed_cache_file_set_matches_the_single_process_plan() {
    // The farm writes artifacts under exactly the hashes the in-process
    // sweep would look up: content-addressing is what guarantees a
    // farmed run and a local run converge on the same result set.
    let dir = temp_dir("parity");
    let cells = tiny_cells(3);
    let mut handle = start_farm(&dir, cells.clone(), Duration::from_secs(30));
    let cfg = WorkerConfig {
        connect: handle.addr().to_string(),
        name: "solo".into(),
        codec: WireCodec::Bin,
        poll: Duration::from_millis(20),
    };
    let worker = std::thread::spawn(move || run_worker(&cfg).unwrap());
    wait_settled(&handle, Duration::from_secs(60));
    handle.shutdown();
    worker.join().unwrap();

    let mut expected: Vec<String> = cells
        .iter()
        .map(|k| format!("{}.cell", k.hash_hex()))
        .collect();
    expected.sort();
    let mut on_disk: Vec<String> = std::fs::read_dir(dir.join("cache"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    assert_eq!(on_disk, expected);

    // And the worker-computed verdict agrees with a local execution of
    // the same canonical key (seed-deterministic obfuscation: both
    // sides attack the same locked circuit).
    let cache = CellCache::new(&dir, true);
    for key in &cells {
        let farmed = ril_bench::experiment::parse_cell_payload(&cache.get(key).unwrap()).unwrap();
        let local_payload = SatCellSpec::parse(key.canonical())
            .unwrap()
            .execute()
            .unwrap();
        let local = ril_bench::experiment::parse_cell_payload(&local_payload).unwrap();
        assert_eq!(
            farmed.report.is_some(),
            local.report.is_some(),
            "farmed and local cells disagree for {}",
            key.canonical()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
