//! The farm worker: connect, join, then lease → execute → complete
//! until the coordinator says the sweep is done.
//!
//! Workers are pure compute — they never touch the cell cache or the
//! run directory. Results travel back over the wire and the coordinator
//! persists them, so a worker can run on any machine that can reach the
//! coordinator's port. A background thread heartbeats the held leases
//! on its own connection at a third of the lease duration, so a long
//! SAT call on the main thread cannot starve the renewals.

use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ril_serve::farm::{FarmRequest, FarmResponse, FARM_PROTOCOL_VERSION};
use ril_serve::{read_frame_bytes, write_frame_bytes, WireCodec};

use crate::farm::SatCellSpec;

/// How a worker runs.
pub struct WorkerConfig {
    /// Coordinator address, `host:port`.
    pub connect: String,
    /// Worker name, used in the coordinator's per-worker telemetry.
    pub name: String,
    /// Not read: every farm frame is binary. Kept only because the
    /// benchmark harness sets it.
    pub codec: WireCodec,
    /// How long to sleep when the coordinator has no work yet.
    pub poll: Duration,
}

impl Default for WorkerConfig {
    fn default() -> WorkerConfig {
        WorkerConfig {
            connect: String::new(),
            name: format!("w{}", std::process::id()),
            codec: WireCodec::Bin,
            poll: Duration::from_millis(200),
        }
    }
}

/// What a worker did before the farm wound down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Cells executed and accepted fresh (or stolen).
    pub completed: usize,
    /// Cells this worker reported as uncomputable.
    pub failed: usize,
    /// Completions the coordinator dropped as duplicates.
    pub duplicates: usize,
}

/// One farm connection: framed request/response over a [`TcpStream`].
struct FarmClient {
    stream: TcpStream,
}

impl FarmClient {
    fn connect(addr: &str) -> Result<FarmClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        Ok(FarmClient { stream })
    }

    fn call(&mut self, req: &FarmRequest) -> Result<FarmResponse, String> {
        let frame = req.encode().map_err(|e| e.to_string())?;
        write_frame_bytes(&mut self.stream, &frame).map_err(|e| e.to_string())?;
        let payload = read_frame_bytes(&mut self.stream).map_err(|e| e.to_string())?;
        FarmResponse::decode(&payload).map_err(|e| e.to_string())
    }
}

/// Runs one worker to completion against a coordinator.
///
/// Returns once the coordinator reports the sweep settled (or goes
/// away). Transient call failures against a live coordinator are
/// retried by reconnecting once; a dead coordinator ends the worker.
///
/// # Errors
///
/// Returns a message when the initial connect/join handshake fails.
pub fn run_worker(cfg: &WorkerConfig) -> Result<WorkerSummary, String> {
    let mut client = FarmClient::connect(&cfg.connect)?;
    let join = FarmRequest::Join {
        worker: cfg.name.clone(),
        version: FARM_PROTOCOL_VERSION,
    };
    let lease_ms = match client.call(&join)? {
        FarmResponse::Welcome { lease_ms, .. } => lease_ms.max(300),
        other => return Err(format!("unexpected join answer: {other:?}")),
    };

    let held: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let beat = spawn_heartbeat(cfg, lease_ms, Arc::clone(&held), Arc::clone(&stop));

    let mut summary = WorkerSummary::default();
    let result = work_loop(cfg, &mut client, &held, &mut summary);
    stop.store(true, Ordering::SeqCst);
    let _ = beat.join();
    result.map(|()| summary)
}

fn spawn_heartbeat(
    cfg: &WorkerConfig,
    lease_ms: u64,
    held: Arc<Mutex<Vec<u64>>>,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    let addr = cfg.connect.clone();
    let name = cfg.name.clone();
    let interval = Duration::from_millis((lease_ms / 3).max(100));
    std::thread::spawn(move || {
        let mut client: Option<FarmClient> = None;
        let mut last = Instant::now();
        while !stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(25));
            if last.elapsed() < interval {
                continue;
            }
            last = Instant::now();
            let lease_ids = held.lock().expect("held leases").clone();
            if lease_ids.is_empty() {
                continue;
            }
            if client.is_none() {
                client = FarmClient::connect(&addr).ok();
            }
            let Some(c) = client.as_mut() else { continue };
            let req = FarmRequest::Heartbeat {
                worker: name.clone(),
                lease_ids,
            };
            match c.call(&req) {
                Ok(FarmResponse::Heartbeats { lost, .. }) if !lost.is_empty() => {
                    // Expired-and-gone leases: stop renewing them. The
                    // main thread still reports its result, which the
                    // coordinator settles as stolen or duplicate.
                    held.lock()
                        .expect("held leases")
                        .retain(|id| !lost.contains(id));
                }
                Ok(_) => {}
                Err(_) => client = None,
            }
        }
    })
}

fn work_loop(
    cfg: &WorkerConfig,
    client: &mut FarmClient,
    held: &Arc<Mutex<Vec<u64>>>,
    summary: &mut WorkerSummary,
) -> Result<(), String> {
    let mut reconnects = 0usize;
    loop {
        let req = FarmRequest::Lease {
            worker: cfg.name.clone(),
            max: 1,
        };
        let resp = match client.call(&req) {
            Ok(r) => r,
            Err(_) if reconnects < 3 => {
                reconnects += 1;
                std::thread::sleep(cfg.poll);
                match FarmClient::connect(&cfg.connect) {
                    Ok(c) => {
                        *client = c;
                        continue;
                    }
                    Err(_) => continue,
                }
            }
            Err(e) => return Err(format!("coordinator gone: {e}")),
        };
        reconnects = 0;
        let (leases, done) = match resp {
            FarmResponse::Leases { leases, done } => (leases, done),
            other => return Err(format!("unexpected lease answer: {other:?}")),
        };
        if leases.is_empty() {
            if done {
                return Ok(());
            }
            std::thread::sleep(cfg.poll);
            continue;
        }
        for grant in leases {
            held.lock().expect("held leases").push(grant.lease_id);
            let outcome = execute_cell(cfg, client, &grant.key, grant.lease_id);
            held.lock()
                .expect("held leases")
                .retain(|&id| id != grant.lease_id);
            match outcome {
                Ok(duplicate) => {
                    if duplicate {
                        summary.duplicates += 1;
                    } else {
                        summary.completed += 1;
                    }
                }
                Err(()) => summary.failed += 1,
            }
        }
    }
}

/// Executes one leased cell and reports it. `Ok(duplicate)` on any
/// accepted report; `Err(())` when the cell was reported failed.
fn execute_cell(
    cfg: &WorkerConfig,
    client: &mut FarmClient,
    key: &str,
    lease_id: u64,
) -> Result<bool, ()> {
    let fail = |client: &mut FarmClient, message: String| {
        let _ = client.call(&FarmRequest::Fail {
            worker: cfg.name.clone(),
            lease_id,
            key: key.to_string(),
            message,
        });
    };
    let spec = match SatCellSpec::parse(key) {
        Ok(s) => s,
        Err(e) => {
            fail(client, e);
            return Err(());
        }
    };
    let t0 = Instant::now();
    let payload = match spec.execute() {
        Ok(p) => p,
        Err(e) => {
            fail(client, e);
            return Err(());
        }
    };
    let wall_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
    let req = FarmRequest::Complete {
        worker: cfg.name.clone(),
        lease_id,
        key: key.to_string(),
        payload,
        wall_us,
    };
    match client.call(&req) {
        Ok(FarmResponse::Accepted { duplicate, .. }) => Ok(duplicate),
        Ok(_) | Err(_) => Err(()),
    }
}

/// Entry point for the `ril-bench worker` subcommand: runs a worker and
/// prints a one-line summary to `out`.
///
/// # Errors
///
/// Propagates handshake failures as a message for the CLI to print.
pub fn worker_main(cfg: &WorkerConfig, out: &mut impl io::Write) -> Result<(), String> {
    let summary = run_worker(cfg)?;
    let _ = writeln!(
        out,
        "worker {}: {} completed, {} failed, {} duplicate",
        cfg.name, summary.completed, summary.failed, summary.duplicates
    );
    Ok(())
}
