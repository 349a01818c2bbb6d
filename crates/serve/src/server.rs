//! The activation service: one blocking thread per connection over
//! `std::net`, with the hosted-chip table striped across shard locks.
//!
//! The acceptor blocks in `accept` and gives each connection its own
//! thread ([`crate::conn`]). That thread blocks in `read`, decodes and
//! dispatches **every** complete frame it has buffered (request
//! pipelining — a client may write many frames before reading any
//! response), and writes the responses in order. Nothing on the request
//! path sleeps, spins or polls, so a serial caller that thinks between
//! queries (a SAT attack) pays no wake-up latency. A stalled peer parks
//! its own thread and delays no one else.
//!
//! Every frame is binary in both directions ([`crate::codec`]), errors
//! included. A payload that does not decode — wrong magic, wrong version
//! byte, unknown opcode, truncated body — gets a typed `malformed` error
//! frame; its length prefix was valid, so the stream stays aligned and the
//! connection keeps being served.
//!
//! Chip state is sharded (`shards` stripes, chip id modulo stripe
//! count). A query locks only its chip's shard — and holds it for the
//! whole request, so a morph still never lands mid-`QueryBatch` (PR 7's
//! atomic-block invariant) — while traffic to chips on other shards
//! proceeds in parallel. The scheduler walks one shard at a time.
//!
//! Shutdown — [`ServerHandle::shutdown`] or the wire `shutdown` op —
//! wakes the acceptor and every blocked connection explicitly. Each
//! connection still open gets a typed `shutting_down` frame, and the
//! acceptor joins every connection thread before it returns.

use crate::conn::{spawn_acceptor, Handler, Stop};
use crate::protocol::{ChipStats, DesignSpec, ErrorKind, Request, Response, ServerStats};
use crate::scheduler::{do_morph, spawn_scheduler};
use rand::{rngs::StdRng, SeedableRng};
use ril_attacks::{Oracle, PatternBlock, MAX_LANES};
use ril_core::LockedCircuit;
use ril_trace::{Metrics, MetricsSnapshot, SpanId, Tracer};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Decorrelates a design seed from the obfuscator's use of the same seed,
/// so the morph stream is not the lock stream replayed.
const MORPH_SEED_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; use port 0 for an OS-assigned port.
    pub addr: String,
    /// Chip-table stripes. More stripes = more chips morphing/answering
    /// concurrently; a single chip's traffic still serializes on its own
    /// stripe (that's the batch-atomicity guarantee).
    pub shards: usize,
    /// Morph every chip after this many oracle queries (`None` = off).
    pub morph_queries: Option<u64>,
    /// Morph every chip after this much wall time (`None` = off).
    pub morph_interval: Option<Duration>,
    /// Per-chip lifetime query budget (`None` = unlimited).
    pub query_limit: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: 8,
            morph_queries: None,
            morph_interval: None,
            query_limit: None,
        }
    }
}

/// One provisioned chip: the locked circuit it was burned from, its
/// activated oracle, and the morph bookkeeping.
pub(crate) struct HostedChip {
    pub(crate) locked: LockedCircuit,
    pub(crate) oracle: Oracle,
    pub(crate) rng: StdRng,
    pub(crate) queries: u64,
    pub(crate) morphs: u64,
    pub(crate) generation: u64,
    pub(crate) since_morph: u64,
    pub(crate) last_morph: Instant,
}

pub(crate) struct State {
    pub(crate) cfg: ServeConfig,
    /// The chip table, striped: chip id modulo stripe count picks the
    /// lock. Every per-chip operation (query, batch, morph) takes exactly
    /// one stripe and holds it for the whole operation.
    pub(crate) shards: Vec<Mutex<BTreeMap<u64, HostedChip>>>,
    next_chip: AtomicU64,
    requests: AtomicU64,
    stop: Stop,
    trace: Option<(Tracer, SpanId)>,
    /// The server's own metrics registry (DESIGN.md §15): request
    /// counters, per-phase and per-chip latency histograms. Distinct
    /// from the optional caller trace — this one always exists and is
    /// what the `stats` op snapshots onto the wire.
    metrics: Metrics,
    started: Instant,
    /// `(instant, requests)` at the previous `stats` poll, for the
    /// qps-since-last-poll figure.
    last_poll: Mutex<(Instant, u64)>,
}

impl State {
    pub(crate) fn shutting_down(&self) -> bool {
        self.stop.is_set()
    }

    pub(crate) fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The stripe that owns `chip`.
    pub(crate) fn shard(&self, chip: u64) -> &Mutex<BTreeMap<u64, HostedChip>> {
        &self.shards[(chip % self.shards.len() as u64) as usize]
    }

    /// Installs this server's trace context on the calling thread (the
    /// guard must stay alive for `counter()` calls to land).
    pub(crate) fn install_trace(&self) -> Option<ril_trace::ContextGuard> {
        self.trace.as_ref().map(|(t, parent)| t.install(*parent))
    }
}

/// The ril-serve activation service.
pub struct Server;

impl Server {
    /// Binds, spawns the acceptor (+ time-based morph
    /// scheduler when configured), and returns the control handle.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
        Server::start_inner(cfg, None)
    }

    /// Like [`Server::start`], but every connection thread and the
    /// scheduler join
    /// `tracer`'s trace as children of `parent`, so `serve.*` counters
    /// and spans land in the caller's export.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start_traced(
        cfg: ServeConfig,
        tracer: &Tracer,
        parent: SpanId,
    ) -> std::io::Result<ServerHandle> {
        Server::start_inner(cfg, Some((tracer.clone(), parent)))
    }

    fn start_inner(
        cfg: ServeConfig,
        trace: Option<(Tracer, SpanId)>,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let stop = Stop::new(&listener)?;
        let shards = cfg.shards.max(1);
        let started = Instant::now();
        let state = Arc::new(State {
            cfg,
            shards: (0..shards).map(|_| Mutex::new(BTreeMap::new())).collect(),
            next_chip: AtomicU64::new(1),
            requests: AtomicU64::new(0),
            stop: stop.clone(),
            trace,
            metrics: Metrics::new(),
            started,
            last_poll: Mutex::new((started, 0)),
        });

        let mut threads = vec![spawn_acceptor(listener, Arc::clone(&state), stop)];
        if state.cfg.morph_interval.is_some() {
            threads.push(spawn_scheduler(Arc::clone(&state)));
        }

        Ok(ServerHandle {
            addr,
            state,
            threads: Mutex::new(threads),
        })
    }
}

/// Control handle for a running server. Dropping it does **not** stop the
/// service; call [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<State>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Provisions a chip directly, without a connection — used by the CLI
    /// to pre-activate, and by tests.
    ///
    /// # Errors
    ///
    /// Returns the provisioning failure message.
    pub fn activate(&self, design: &DesignSpec) -> Result<u64, String> {
        match activate(&self.state, design)? {
            Response::Activated { chip, .. } => Ok(chip),
            other => Err(format!("unexpected response {other:?}")),
        }
    }

    /// Requests handled so far.
    pub fn requests(&self) -> u64 {
        self.state.requests.load(Ordering::Relaxed)
    }

    /// A snapshot of the server's metrics registry — what the `stats`
    /// wire op carries, without a connection.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.state.metrics.snapshot()
    }

    /// Blocks until the service drains — i.e. until some client sends the
    /// `shutdown` op (or [`ServerHandle::shutdown`] runs on another
    /// thread). This is how `rilock serve` stays in the foreground.
    pub fn wait(&self) {
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = self.threads.lock().expect("thread table");
            guard.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }

    /// Signals shutdown and joins every service thread. Idempotent.
    pub fn shutdown(&self) {
        self.state.stop.trigger();
        self.wait();
    }
}

impl Handler for State {
    /// Decodes, dispatches, and answers one frame.
    fn answer(&self, payload: &[u8]) -> (Vec<u8>, bool) {
        ril_trace::counter("serve.requests", 1);
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.metrics.counter_add("serve.requests", 1);
        let t_decode = Instant::now();
        let decoded = Request::decode(payload);
        self.metrics
            .record_timing("serve.phase.decode", t_decode.elapsed());
        let (resp, close) = match decoded {
            Ok(req) => dispatch(self, req),
            // Framing is still aligned (the length prefix was valid), so a
            // malformed payload answers a typed error and keeps the stream.
            Err(e) => (err(ErrorKind::Malformed, e.to_string()), false),
        };
        (encode_response(self, &resp), close)
    }

    fn oversized(&self, len: usize) -> Vec<u8> {
        let resp = err(
            ErrorKind::Oversized,
            format!("{len}-byte frame exceeds the cap"),
        );
        encode_response(self, &resp)
    }

    fn farewell(&self) -> Option<Vec<u8>> {
        err(ErrorKind::ShuttingDown, "server is shutting down")
            .encode()
            .ok()
    }

    fn enter(&self) -> Option<ril_trace::ContextGuard> {
        self.install_trace()
    }
}

/// Encodes `resp`. A response too large for a frame degrades to a typed
/// `internal` error rather than killing the stream.
fn encode_response(state: &State, resp: &Response) -> Vec<u8> {
    let t_write = Instant::now();
    let payload = resp.encode().unwrap_or_else(|_| {
        err(ErrorKind::Internal, "response exceeded the frame cap")
            .encode()
            .expect("a short error encodes")
    });
    state
        .metrics
        .record_timing("serve.phase.write", t_write.elapsed());
    payload
}

fn err(kind: ErrorKind, message: impl Into<String>) -> Response {
    Response::Error {
        kind,
        message: message.into(),
    }
}

/// Routes one parsed request. Returns the response and whether the
/// connection should close afterwards.
fn dispatch(state: &State, req: Request) -> (Response, bool) {
    match req {
        Request::Activate { design } => {
            let resp = match activate(state, &design) {
                Ok(resp) => resp,
                Err(msg) => err(ErrorKind::Internal, msg),
            };
            (resp, false)
        }
        Request::Query { chip, inputs } => (query(state, chip, &[inputs], false), false),
        Request::QueryBatch { chip, patterns } => (query(state, chip, &patterns, true), false),
        Request::Stats => (stats(state), false),
        Request::Shutdown => {
            state.stop.trigger();
            (Response::Bye, true)
        }
    }
}

/// Builds and hosts a chip. The expensive lock + compile happens outside
/// any shard lock.
fn activate(state: &State, design: &DesignSpec) -> Result<Response, String> {
    let locked = design.build()?;
    let oracle = Oracle::new(&locked).map_err(|e| format!("oracle build failed: {e}"))?;
    let chip = HostedChip {
        rng: StdRng::seed_from_u64(design.seed ^ MORPH_SEED_SALT),
        queries: 0,
        morphs: 0,
        generation: 0,
        since_morph: 0,
        last_morph: Instant::now(),
        oracle,
        locked,
    };
    let inputs = chip.oracle.input_width();
    let outputs = chip.oracle.output_width();
    let key_bits = chip.locked.keys.bits().len();
    let id = state.next_chip.fetch_add(1, Ordering::Relaxed);
    state.shard(id).lock().expect("chip shard").insert(id, chip);
    Ok(Response::Activated {
        chip: id,
        generation: 0,
        inputs,
        outputs,
        key_bits,
    })
}

/// Answers `patterns` against a hosted chip. `batch` selects the wire
/// shape: a `query_batch` request always gets a [`Response::Batch`] (even
/// with one lane), a `query` always gets [`Response::Outputs`].
///
/// The chip's shard lock is held for the whole request, so a morph can
/// never land mid-block: every lane is answered under one generation, the
/// one reported in the response. Query budgets count individual patterns,
/// and a query-count morph fires only after the full batch is accounted.
fn query(state: &State, chip_id: u64, patterns: &[Vec<bool>], batch: bool) -> Response {
    let t0 = Instant::now();
    let mut shard = state.shard(chip_id).lock().expect("chip shard");
    let Some(chip) = shard.get_mut(&chip_id) else {
        return err(ErrorKind::UnknownChip, format!("no chip {chip_id}"));
    };
    if let Some(limit) = state.cfg.query_limit {
        if chip.queries + patterns.len() as u64 > limit {
            return err(
                ErrorKind::RateLimited,
                format!("chip {chip_id} exhausted its {limit}-query budget"),
            );
        }
    }
    let width = chip.oracle.input_width();
    // Validate every row before packing: `PatternBlock::pack` panics on
    // ragged input, and a malformed request must not bring a connection down.
    for pattern in patterns {
        if pattern.len() != width {
            return err(
                ErrorKind::BadWidth,
                format!("chip {chip_id} takes {width} inputs, got {}", pattern.len()),
            );
        }
    }
    if patterns.is_empty() {
        return err(ErrorKind::Malformed, "query_batch carried no patterns");
    }
    let mut rows = Vec::with_capacity(patterns.len());
    let mut blocks = 0u64;
    if batch {
        // Lane-packed: each 64-pattern chunk is one bitslice pass.
        for chunk in patterns.chunks(MAX_LANES) {
            rows.extend(chip.oracle.query_block(&PatternBlock::pack(chunk)).unpack());
            blocks += 1;
        }
    } else {
        rows.push(chip.oracle.query(&patterns[0]));
        blocks = 1;
    }
    chip.queries += patterns.len() as u64;
    chip.since_morph += patterns.len() as u64;
    // One successful query/query_batch request = exactly one
    // `serve.queries` increment and one `serve.query.latency` sample —
    // the counter and the histogram count stay equal by construction
    // (CI's stats-consistency assertion). The eval wall excludes the
    // trailing scheduled morph, which books under `serve.phase.morph`.
    let eval = t0.elapsed();
    state.metrics.counter_add("serve.queries", 1);
    state
        .metrics
        .counter_add("serve.query.patterns", patterns.len() as u64);
    state.metrics.record_timing("serve.phase.eval", eval);
    state.metrics.record_timing("serve.query.latency", eval);
    let chip_scope = state.metrics.scoped(format!("chip.{chip_id}"));
    chip_scope.record_timing("query.latency", eval);
    chip_scope.counter_add("query.patterns", patterns.len() as u64);
    chip_scope.counter_add("query.blocks", blocks);
    // The response reports the generation the answers were produced
    // under; a query-count morph fires after, never mid-batch.
    let generation = chip.generation;
    if let Some(k) = state.cfg.morph_queries {
        if chip.since_morph >= k {
            do_morph(&state.metrics, chip);
        }
    }
    if batch {
        Response::Batch { rows, generation }
    } else {
        Response::Outputs {
            bits: rows.pop().expect("one row"),
            generation,
        }
    }
}

fn stats(state: &State) -> Response {
    let requests = state.requests.load(Ordering::Relaxed);
    // qps since the previous poll: the polling client (e.g. `rilock
    // top`) gets a live rate without differencing counters itself. The
    // stats request that asks was already counted, so it is included.
    let now = Instant::now();
    let qps = {
        let mut last = state.last_poll.lock().expect("poll state");
        let dt = now.duration_since(last.0).as_secs_f64();
        let delta = requests.saturating_sub(last.1);
        *last = (now, requests);
        if dt > 0.0 {
            delta as f64 / dt
        } else {
            0.0
        }
    };
    // One shard at a time — chips keep answering on other shards while
    // the snapshot walks. The merged list is re-sorted by chip id so the
    // wire shape is identical to the single-table era.
    let mut chips: Vec<ChipStats> = Vec::new();
    for shard in &state.shards {
        let shard = shard.lock().expect("chip shard");
        chips.extend(shard.iter().map(|(&chip, c)| ChipStats {
            chip,
            queries: c.queries,
            morphs: c.morphs,
            generation: c.generation,
        }));
    }
    chips.sort_by_key(|c| c.chip);
    Response::Stats(ServerStats {
        requests,
        uptime_s: state.started.elapsed().as_secs_f64(),
        qps,
        chips,
        metrics: state.metrics.snapshot(),
    })
}
