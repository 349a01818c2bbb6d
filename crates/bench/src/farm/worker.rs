//! The farm worker: connect, join, then lease → execute → hand off
//! until the coordinator says the sweep is done.
//!
//! Workers are pure compute — they never touch the cell cache or the
//! run directory. Results travel back over the wire and the coordinator
//! persists them, so a worker can run on any machine that can reach the
//! coordinator's port.
//!
//! A worker runs two threads, each on its own connection. The main
//! thread leases and executes one cell at a time. It hands each result
//! to the **courier** thread over a one-slot channel and leases the next
//! cell at once, so the coordinator's cache write of one cell overlaps
//! the compute of the next. The courier sends `Complete` (or `Fail`)
//! and, between deliveries, heartbeats the held leases at a third of the
//! lease duration, so a long SAT call on the main thread cannot starve
//! the renewals. A lease stays held until its completion is
//! acknowledged, and [`run_worker`] joins the courier before it returns:
//! every result the worker computed has been answered by then.

use std::io;
use std::net::TcpStream;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ril_serve::farm::{FarmRequest, FarmResponse, FARM_PROTOCOL_VERSION};
use ril_serve::{read_frame_bytes, write_frame_bytes, WireCodec};

use crate::experiment::cell_payload;
use crate::CellSpec;

/// How a worker runs.
pub struct WorkerConfig {
    /// Coordinator address, `host:port`.
    pub connect: String,
    /// Worker name, used in the coordinator's per-worker telemetry.
    pub name: String,
    /// Not read: every farm frame is binary. Kept only because the
    /// benchmark harness sets it.
    pub codec: WireCodec,
    /// How long to sleep when the coordinator has no work yet and none
    /// of this worker's own results is still on its way there.
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

/// One executed cell on its way to the coordinator: its payload, or why
/// it has none.
struct Delivery {
    lease_id: u64,
    key: String,
    payload: Result<String, String>,
    wall_us: u64,
}

/// Runs one worker to completion against a coordinator.
///
/// Returns once the coordinator reports the sweep settled (or goes
/// away) and the courier has delivered every result, so an accepted
/// cell is on the coordinator's disk by then. Transient call failures
/// against a live coordinator are retried by reconnecting; a dead
/// coordinator ends the worker.
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
    let (deliver, deliveries) = mpsc::sync_channel::<Delivery>(1);
    let (ack, acks) = mpsc::channel::<()>();
    let courier = spawn_courier(cfg, lease_ms, Arc::clone(&held), deliveries, ack);

    let result = work_loop(cfg, &mut client, &held, &deliver, &acks);
    // Hanging up lets the courier finish its last delivery and return.
    drop(deliver);
    let summary = courier
        .join()
        .map_err(|_| "the courier thread panicked".to_string())?;
    result.map(|()| summary)
}

fn spawn_courier(
    cfg: &WorkerConfig,
    lease_ms: u64,
    held: Arc<Mutex<Vec<u64>>>,
    deliveries: Receiver<Delivery>,
    ack: Sender<()>,
) -> std::thread::JoinHandle<WorkerSummary> {
    let mut courier = Courier {
        addr: cfg.connect.clone(),
        name: cfg.name.clone(),
        held,
        client: None,
        summary: WorkerSummary::default(),
    };
    let interval = Duration::from_millis((lease_ms / 3).max(100));
    std::thread::spawn(move || {
        let mut next_beat = Instant::now() + interval;
        loop {
            match deliveries.recv_timeout(next_beat.saturating_duration_since(Instant::now())) {
                Ok(delivery) => {
                    courier.deliver(delivery);
                    let _ = ack.send(());
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return courier.summary,
            }
            if Instant::now() >= next_beat {
                courier.heartbeat();
                next_beat = Instant::now() + interval;
            }
        }
    })
}

/// The courier thread's state: its own connection (opened on first
/// use), the held leases it renews, and the worker's tallies.
struct Courier {
    addr: String,
    name: String,
    held: Arc<Mutex<Vec<u64>>>,
    client: Option<FarmClient>,
    summary: WorkerSummary,
}

impl Courier {
    /// One call on the courier's connection. A failed call drops the
    /// connection; the next call opens a fresh one.
    fn call(&mut self, req: &FarmRequest) -> Result<FarmResponse, String> {
        let mut client = match self.client.take() {
            Some(c) => c,
            None => FarmClient::connect(&self.addr)?,
        };
        let resp = client.call(req)?;
        self.client = Some(client);
        Ok(resp)
    }

    /// Reports one executed cell, then releases its lease.
    fn deliver(&mut self, d: Delivery) {
        let message = match d.payload {
            Ok(payload) => {
                let req = FarmRequest::Complete {
                    worker: self.name.clone(),
                    lease_id: d.lease_id,
                    key: d.key.clone(),
                    payload,
                    wall_us: d.wall_us,
                };
                // A result that cannot be delivered (a payload over the
                // frame cap, or one the coordinator refuses) is reported
                // failed: re-leasing the cell would only recompute the
                // same result, forever. A failed cell is computed
                // in-process after the farm phase.
                match self.call(&req) {
                    Ok(FarmResponse::Accepted { duplicate, .. }) => {
                        if duplicate {
                            self.summary.duplicates += 1;
                        } else {
                            self.summary.completed += 1;
                        }
                        None
                    }
                    Ok(other) => Some(format!("completion refused: {other:?}")),
                    Err(e) => Some(format!("completion not delivered: {e}")),
                }
            }
            Err(e) => Some(e),
        };
        if let Some(message) = message {
            let _ = self.call(&FarmRequest::Fail {
                worker: self.name.clone(),
                lease_id: d.lease_id,
                key: d.key,
                message,
            });
            self.summary.failed += 1;
        }
        self.held
            .lock()
            .expect("held leases")
            .retain(|&id| id != d.lease_id);
    }

    /// Renews every held lease.
    fn heartbeat(&mut self) {
        let lease_ids = self.held.lock().expect("held leases").clone();
        if lease_ids.is_empty() {
            return;
        }
        if let Ok(FarmResponse::Heartbeats { lost, .. }) =
            self.call(&FarmRequest::Heartbeat { lease_ids })
        {
            // Expired-and-gone leases: stop renewing them. Their results
            // are still delivered, and the coordinator settles them as
            // stolen or duplicate.
            self.held
                .lock()
                .expect("held leases")
                .retain(|id| !lost.contains(id));
        }
    }
}

fn work_loop(
    cfg: &WorkerConfig,
    client: &mut FarmClient,
    held: &Mutex<Vec<u64>>,
    deliver: &SyncSender<Delivery>,
    acks: &Receiver<()>,
) -> Result<(), String> {
    const COURIER_GONE: &str = "the courier thread is gone";
    let mut reconnects = 0usize;
    // Results handed to the courier and not yet acknowledged.
    let mut in_flight = 0usize;
    loop {
        in_flight -= acks.try_iter().count();
        let resp = match client.call(&FarmRequest::Lease { max: 1 }) {
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
            if in_flight > 0 {
                // The cell the farm waits on may be this worker's own,
                // still on its way: ask again as soon as it lands.
                acks.recv().map_err(|_| COURIER_GONE.to_string())?;
                in_flight -= 1;
            } else {
                std::thread::sleep(cfg.poll);
            }
            continue;
        }
        for grant in leases {
            held.lock().expect("held leases").push(grant.lease_id);
            let t0 = Instant::now();
            let payload = CellSpec::parse(&grant.key)
                .and_then(|spec| spec.run().map_err(|e| e.to_string()))
                .map(|outcome| cell_payload(&outcome));
            let wall_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
            deliver
                .send(Delivery {
                    lease_id: grant.lease_id,
                    key: grant.key,
                    payload,
                    wall_us,
                })
                .map_err(|_| COURIER_GONE.to_string())?;
            in_flight += 1;
        }
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
