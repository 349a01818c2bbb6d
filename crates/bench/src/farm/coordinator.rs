//! The farm coordinator: a small blocking TCP server that owns the
//! lease table, persists finished cells into the shared cache, and
//! records farm telemetry.
//!
//! It runs the oracle server's connection loop ([`ril_serve::conn`]): a
//! blocking `accept`, then one thread per connection that blocks in
//! `read` and answers each complete frame. A frame that arrives in
//! pieces is buffered until it is whole, so a slow peer never knocks the
//! stream off its frame boundaries. The lease logic stays synchronous —
//! one mutex around the [`LeaseTable`], taken per frame.

use std::collections::HashSet;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ril_serve::conn::{spawn_acceptor, Handler, Stop};
use ril_serve::farm::{FarmRequest, FarmResponse, FARM_PROTOCOL_VERSION};
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
    stop: Stop,
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
        let stop = Stop::new(&listener)?;
        let shared = Arc::new(Shared {
            table: Mutex::new(LeaseTable::new(cells, cfg.lease)),
            cache,
            metrics: Metrics::new(),
            trace: cfg.trace,
            stop: stop.clone(),
            workers: Mutex::new(HashSet::new()),
        });
        let accept = spawn_acceptor(listener, Arc::clone(&shared), stop);
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
    /// joins the accept thread, which wakes and joins every connection
    /// thread.
    pub fn shutdown(&mut self) {
        self.shared.stop.trigger();
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

impl Handler for Shared {
    fn answer(&self, payload: &[u8]) -> (Vec<u8>, bool) {
        let resp = match FarmRequest::decode(payload) {
            Ok(req) => handle(self, req),
            Err(e) => FarmResponse::FarmError {
                message: format!("bad farm frame: {e}"),
            },
        };
        (encode(&resp), false)
    }

    fn oversized(&self, len: usize) -> Vec<u8> {
        encode(&FarmResponse::FarmError {
            message: format!("{len}-byte frame exceeds the cap"),
        })
    }

    fn farewell(&self) -> Option<Vec<u8>> {
        // A worker reads this as the answer to its next request: a
        // polling worker learns the farm is done and exits cleanly.
        Some(encode(&FarmResponse::Leases {
            leases: Vec::new(),
            done: true,
        }))
    }
}

/// Encodes `resp`; one too large for a frame degrades to a short error.
fn encode(resp: &FarmResponse) -> Vec<u8> {
    resp.encode().unwrap_or_else(|_| {
        FarmResponse::FarmError {
            message: "response exceeded the frame cap".to_string(),
        }
        .encode()
        .expect("a short error encodes")
    })
}

fn handle(shared: &Shared, req: FarmRequest) -> FarmResponse {
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
        FarmRequest::Lease { max } => {
            if shared.stop.is_set() {
                return FarmResponse::Leases {
                    leases: Vec::new(),
                    done: true,
                };
            }
            let mut table = shared.table.lock().expect("lease table");
            let (leases, expired) = table.grant(max as usize, now);
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
            let cache_key = match CacheKey::parse(&key) {
                Ok(k) => k,
                Err(e) => {
                    return FarmResponse::FarmError {
                        message: format!("rejected key {key}: {e}"),
                    }
                }
            };
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
        FarmRequest::Heartbeat { lease_ids } => {
            let (renewed, lost) = {
                let mut table = shared.table.lock().expect("lease table");
                table.heartbeat(&lease_ids, now)
            };
            FarmResponse::Heartbeats { renewed, lost }
        }
    }
}

fn store(shared: &Shared, key: &CacheKey, payload: &str) {
    // The lease table settles each cell once (`Fresh` or `Stolen` stores,
    // `Duplicate` drops), so this is the cell's only write; the cache's
    // temp+rename keeps it atomic.
    let _ = shared.cache.put(key, payload);
}
