//! The farm coordinator: a small blocking TCP server that owns the
//! lease table, persists finished cells into the shared cache, and
//! records farm telemetry.
//!
//! The control plane is deliberately boring compared to the oracle
//! server's reactor: farm traffic is a few frames per cell (seconds to
//! minutes of compute each), so a thread per connection with short read
//! timeouts is plenty, and keeps the lease logic synchronous — one
//! mutex around the [`LeaseTable`], taken per frame.

use std::collections::HashSet;
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ril_serve::farm::{FarmRequest, FarmResponse, FARM_PROTOCOL_VERSION};
use ril_serve::{read_frame_bytes, write_frame_bytes, FrameError};
use ril_trace::{Metrics, MetricsSnapshot, Tracer};

use crate::cache::{CacheKey, CellCache};
use crate::experiment::parse_cell_payload;
use crate::farm::lease::{FarmCounts, LeaseTable, Settle};

/// How the coordinator is wired up.
pub struct FarmConfig {
    /// Address to bind; port 0 picks a free one.
    pub bind: String,
    /// Lease duration; workers heartbeat at a third of this.
    pub lease: Duration,
    /// Mirror farm counters/timings into this tracer's metrics too, so
    /// the run's `SPANS_*.jsonl` trailer (and `ril-bench trace`) carry
    /// them alongside the in-process counters.
    pub trace: Option<Tracer>,
}

impl Default for FarmConfig {
    fn default() -> FarmConfig {
        FarmConfig {
            bind: "127.0.0.1:0".to_string(),
            lease: Duration::from_secs(30),
            trace: None,
        }
    }
}

struct Shared {
    table: Mutex<LeaseTable>,
    cache: CellCache,
    metrics: Metrics,
    trace: Option<Tracer>,
    shutdown: AtomicBool,
    workers: Mutex<HashSet<String>>,
}

impl Shared {
    fn count(&self, name: &str, delta: u64) {
        self.metrics.counter_add(name, delta);
        if let Some(t) = &self.trace {
            t.metrics().counter_add(name, delta);
        }
    }

    fn timing(&self, name: &str, wall: Duration) {
        self.metrics.record_timing(name, wall);
        if let Some(t) = &self.trace {
            t.metrics().record_timing(name, wall);
        }
    }
}

/// The coordinator endpoint. [`Coordinator::start`] binds, spawns the
/// accept loop, and returns this handle.
pub struct Coordinator;

/// A running coordinator: the driver polls [`FarmHandle::counts`] for
/// the status line and calls [`FarmHandle::shutdown`] when the phase
/// ends.
pub struct FarmHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    started: Instant,
}

impl Coordinator {
    /// Binds the farm endpoint over `cells` and starts accepting
    /// workers.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind.
    pub fn start(
        cells: Vec<CacheKey>,
        cache: CellCache,
        cfg: FarmConfig,
    ) -> io::Result<FarmHandle> {
        let listener = TcpListener::bind(&cfg.bind)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            table: Mutex::new(LeaseTable::new(cells, cfg.lease)),
            cache,
            metrics: Metrics::new(),
            trace: cfg.trace,
            shutdown: AtomicBool::new(false),
            workers: Mutex::new(HashSet::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(FarmHandle {
            addr,
            shared,
            accept: Some(accept),
            started: Instant::now(),
        })
    }
}

impl FarmHandle {
    /// The bound address workers connect to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current cell-state tallies (also expires overdue leases, so a
    /// farm whose workers all died still converges to `pending`).
    #[must_use]
    pub fn counts(&self) -> FarmCounts {
        let mut table = self.shared.table.lock().expect("lease table");
        let expired = table.expire(Instant::now());
        drop(table);
        if expired > 0 {
            self.shared.count("farm.cells.expired", expired as u64);
        }
        self.shared.table.lock().expect("lease table").counts()
    }

    /// Whether every cell has reached a terminal state.
    #[must_use]
    pub fn is_settled(&self) -> bool {
        self.counts().settled()
    }

    /// Cells that did not finish `Done` — the driver's local-compute
    /// fallback list.
    #[must_use]
    pub fn unfinished(&self) -> Vec<CacheKey> {
        self.shared.table.lock().expect("lease table").unfinished()
    }

    /// Number of distinct workers that ever joined.
    #[must_use]
    pub fn workers_seen(&self) -> usize {
        self.shared.workers.lock().expect("worker set").len()
    }

    /// Wall time since the coordinator started.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// A snapshot of the farm's own counters and latency histograms.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Stops accepting, tells polling workers the farm is done, and
    /// joins the accept thread. Connection threads notice the flag
    /// within one read timeout.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for FarmHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

const READ_TIMEOUT: Duration = Duration::from_millis(250);

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                std::thread::spawn(move || serve_conn(stream, &shared));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn serve_conn(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    loop {
        let payload = match read_frame_bytes(&mut stream) {
            Ok(p) => p,
            Err(FrameError::Io(e))
                if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        let resp = match FarmRequest::decode(&payload) {
            Ok(req) => handle(shared, req),
            Err(e) => FarmResponse::FarmError {
                message: format!("bad farm frame: {e}"),
            },
        };
        let Ok(frame) = resp.encode() else {
            return;
        };
        if write_frame_bytes(&mut stream, &frame).is_err() {
            return;
        }
    }
}

fn handle(shared: &Arc<Shared>, req: FarmRequest) -> FarmResponse {
    let now = Instant::now();
    match req {
        FarmRequest::Join { worker, version } => {
            let fresh = shared.workers.lock().expect("worker set").insert(worker);
            if fresh {
                shared.count("farm.workers.joined", 1);
            }
            let lease_ms = {
                let table = shared.table.lock().expect("lease table");
                table.lease_duration().as_millis() as u64
            };
            FarmResponse::Welcome {
                version: version.min(FARM_PROTOCOL_VERSION),
                lease_ms,
            }
        }
        FarmRequest::Lease { worker, max } => {
            if shared.shutdown.load(Ordering::SeqCst) {
                return FarmResponse::Leases {
                    leases: Vec::new(),
                    done: true,
                };
            }
            let mut table = shared.table.lock().expect("lease table");
            let (leases, expired) = table.grant(&worker, max as usize, now);
            let done = table.is_settled();
            drop(table);
            if expired > 0 {
                shared.count("farm.cells.expired", expired as u64);
            }
            if !leases.is_empty() {
                shared.count("farm.cells.leased", leases.len() as u64);
            }
            FarmResponse::Leases { leases, done }
        }
        FarmRequest::Complete {
            worker,
            lease_id,
            key,
            payload,
            wall_us,
        } => {
            if let Err(e) = parse_cell_payload(&payload) {
                // A malformed payload never reaches the cache; the
                // lease expires and a peer (or the local fallback)
                // recomputes the cell.
                return FarmResponse::FarmError {
                    message: format!("rejected payload for {key}: {e}"),
                };
            }
            let cache_key = rebuild_key(&key);
            let settle = {
                let mut table = shared.table.lock().expect("lease table");
                table.complete(lease_id, &key, now)
            };
            match settle {
                Settle::Fresh(lease_wall) => {
                    store(shared, &cache_key, &payload);
                    shared.count("farm.cells.completed", 1);
                    shared.timing("farm.cell.wall", Duration::from_micros(wall_us));
                    shared.timing(&format!("farm.worker.{worker}.cell.wall"), lease_wall);
                    FarmResponse::Accepted {
                        lease_id,
                        duplicate: false,
                        stolen: false,
                    }
                }
                Settle::Stolen => {
                    store(shared, &cache_key, &payload);
                    shared.count("farm.cells.completed", 1);
                    shared.count("farm.cells.stolen", 1);
                    shared.timing("farm.cell.wall", Duration::from_micros(wall_us));
                    FarmResponse::Accepted {
                        lease_id,
                        duplicate: false,
                        stolen: true,
                    }
                }
                Settle::Duplicate => {
                    shared.count("farm.cells.duplicate", 1);
                    FarmResponse::Accepted {
                        lease_id,
                        duplicate: true,
                        stolen: false,
                    }
                }
                Settle::Unknown => FarmResponse::FarmError {
                    message: format!("lease {lease_id} does not cover {key}"),
                },
            }
        }
        FarmRequest::Fail {
            worker,
            lease_id,
            key,
            message,
        } => {
            let retired = {
                let mut table = shared.table.lock().expect("lease table");
                table.fail(lease_id, &key, now)
            };
            if retired {
                shared.count("farm.cells.failed", 1);
                shared.count(&format!("farm.worker.{worker}.failed"), 1);
                let _ = message; // carried for operator logs; counters suffice here
            }
            FarmResponse::Accepted {
                lease_id,
                duplicate: !retired,
                stolen: false,
            }
        }
        FarmRequest::Heartbeat { worker, lease_ids } => {
            let (renewed, lost) = {
                let mut table = shared.table.lock().expect("lease table");
                table.heartbeat(&lease_ids, now)
            };
            let _ = worker;
            FarmResponse::Heartbeats { renewed, lost }
        }
    }
}

/// Reconstructs a [`CacheKey`] whose canonical string equals `key`.
/// [`CacheKey::field`] escapes values, so the already-escaped canonical
/// string is rebuilt field-by-field from its unescaped parts.
fn rebuild_key(key: &str) -> CacheKey {
    let mut parts = key.split('|');
    let _version = parts.next();
    let exp = parts
        .next()
        .and_then(|p| p.strip_prefix("exp="))
        .unwrap_or_default();
    let mut k = CacheKey::new(&unescape(exp));
    for part in parts {
        if let Some((name, value)) = part.split_once('=') {
            k = k.field(name, unescape(value));
        }
    }
    k
}

fn unescape(v: &str) -> String {
    v.replace("%7c", "|").replace("%25", "%")
}

fn store(shared: &Arc<Shared>, key: &CacheKey, payload: &str) {
    // The cache's temp+rename makes racing stores safe; a cell already
    // on disk stays (first write wins at the table level already).
    if shared.cache.get(key).is_none() {
        let _ = shared.cache.put(key, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebuild_key_round_trips_canonical_strings() {
        let original = CacheKey::new("attack")
            .field("kind", "sat")
            .field("bench", "weird|name%x")
            .field("blocks", 3);
        assert_eq!(
            rebuild_key(original.canonical()).canonical(),
            original.canonical()
        );
    }
}
