//! The client side: a framed TCP client with reconnect/retry and
//! request pipelining — plus the [`RemoteOracle`] adapter that lets every
//! oracle-guided attack in `ril-attacks` run unchanged against a live
//! (morphing) server.
//!
//! Construction goes through [`ServeClient::builder`]: address, connect
//! and request timeouts, retry policy and pipelining depth, validated at
//! [`ClientBuilder::build`]. Every frame is binary in both directions
//! ([`crate::codec`]); a connection needs no handshake, so the first
//! request on a fresh stream is already a real one.

use crate::codec::{append_frame, read_frame_bytes, write_frame_bytes, PROTOCOL_VERSION};
use crate::protocol::{DesignSpec, ErrorKind, FrameError, Request, Response, ServerStats};
use ril_attacks::{OracleError, OracleSource, PatternBlock, ResponseBlock};
use ril_core::MorphDelta;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A client-side failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The server answered with a typed protocol error. Not retried: the
    /// server made a decision, resending the same frame cannot change it.
    Server {
        /// The server's error category.
        kind: ErrorKind,
        /// The server's detail message.
        message: String,
    },
    /// The transport failed after exhausting every retry.
    Transport(String),
    /// The server answered with a frame the protocol does not allow here.
    UnexpectedResponse(String),
    /// The builder was given an invalid configuration; nothing was sent.
    Config(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Server { kind, message } => {
                write!(f, "server error `{}`: {message}", kind.as_str())
            }
            ClientError::Transport(msg) => write!(f, "transport failure: {msg}"),
            ClientError::UnexpectedResponse(msg) => write!(f, "unexpected response: {msg}"),
            ClientError::Config(msg) => write!(f, "bad client configuration: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ClientError> for OracleError {
    fn from(e: ClientError) -> OracleError {
        match e {
            ClientError::Server { kind, message } => OracleError::Protocol {
                kind: kind.as_str().to_string(),
                message,
            },
            ClientError::Transport(msg) => OracleError::Transport(msg),
            ClientError::UnexpectedResponse(msg) => OracleError::Protocol {
                kind: "unexpected_response".to_string(),
                message: msg,
            },
            ClientError::Config(msg) => OracleError::Protocol {
                kind: "config".to_string(),
                message: msg,
            },
        }
    }
}

/// Builds a [`ServeClient`] with typed validation. Obtained from
/// [`ServeClient::builder`].
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    addr: String,
    connect_timeout: Duration,
    request_timeout: Duration,
    retries: u32,
    backoff: Duration,
    pipeline: usize,
}

impl ClientBuilder {
    /// TCP connect timeout (default 2 s).
    #[must_use]
    pub fn connect_timeout(mut self, t: Duration) -> ClientBuilder {
        self.connect_timeout = t;
        self
    }

    /// Per-request read/write timeout (default 2 s).
    #[must_use]
    pub fn request_timeout(mut self, t: Duration) -> ClientBuilder {
        self.request_timeout = t;
        self
    }

    /// Sets both timeouts at once.
    #[must_use]
    pub fn timeout(self, t: Duration) -> ClientBuilder {
        self.connect_timeout(t).request_timeout(t)
    }

    /// Transport retries per request (default 3; reconnect + resend).
    #[must_use]
    pub fn retries(mut self, n: u32) -> ClientBuilder {
        self.retries = n;
        self
    }

    /// Base backoff between retries, doubling per attempt (default 50 ms).
    #[must_use]
    pub fn backoff(mut self, t: Duration) -> ClientBuilder {
        self.backoff = t;
        self
    }

    /// Max requests in flight per [`ServeClient::request_pipelined`]
    /// window (default 32).
    #[must_use]
    pub fn pipeline(mut self, depth: usize) -> ClientBuilder {
        self.pipeline = depth;
        self
    }

    /// Validates and builds the client. No I/O happens here; the first
    /// request connects.
    ///
    /// # Errors
    ///
    /// [`ClientError::Config`] for an empty/port-less address, a zero
    /// timeout, or a zero or absurd pipeline depth.
    pub fn build(self) -> Result<ServeClient, ClientError> {
        let cfg = |msg: String| Err(ClientError::Config(msg));
        if self.addr.is_empty() {
            return cfg("address is empty".into());
        }
        if !self.addr.contains(':') {
            return cfg(format!("address `{}` has no port", self.addr));
        }
        if self.connect_timeout.is_zero() || self.request_timeout.is_zero() {
            return cfg("timeouts must be nonzero".into());
        }
        if self.pipeline == 0 {
            return cfg("pipeline depth must be at least 1".into());
        }
        if self.pipeline > 1024 {
            return cfg(format!(
                "pipeline depth {} exceeds the 1024 cap",
                self.pipeline
            ));
        }
        Ok(ServeClient {
            addr: self.addr,
            connect_timeout: self.connect_timeout,
            request_timeout: self.request_timeout,
            retries: self.retries,
            backoff: self.backoff,
            pipeline: self.pipeline,
            conn: None,
        })
    }
}

/// A framed request/response client with connection reuse: one TCP stream
/// carries every request until it fails, then the next request
/// reconnects (bounded retries, exponential backoff).
pub struct ServeClient {
    addr: String,
    connect_timeout: Duration,
    request_timeout: Duration,
    retries: u32,
    backoff: Duration,
    pipeline: usize,
    conn: Option<TcpStream>,
}

impl ServeClient {
    /// Starts a builder for a client of `addr` (e.g. `127.0.0.1:4615`).
    pub fn builder(addr: impl Into<String>) -> ClientBuilder {
        ClientBuilder {
            addr: addr.into(),
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(2),
            retries: 3,
            backoff: Duration::from_millis(50),
            pipeline: 32,
        }
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Connects now (if not yet connected) and returns the
    /// [`PROTOCOL_VERSION`] every frame on the connection carries. There is
    /// nothing to negotiate; the name is kept because the benchmark
    /// harness calls it to connect eagerly.
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] when the server is unreachable.
    pub fn negotiation(&mut self) -> Result<u8, ClientError> {
        self.connection().map_err(ClientError::Transport)?;
        Ok(PROTOCOL_VERSION)
    }

    fn connection(&mut self) -> Result<&mut TcpStream, String> {
        if self.conn.is_none() {
            let addr = self
                .addr
                .to_socket_addrs()
                .map_err(|e| format!("resolving `{}`: {e}", self.addr))?
                .next()
                .ok_or_else(|| format!("`{}` resolves to no address", self.addr))?;
            let stream = TcpStream::connect_timeout(&addr, self.connect_timeout)
                .map_err(|e| e.to_string())?;
            stream
                .set_read_timeout(Some(self.request_timeout))
                .map_err(|e| e.to_string())?;
            stream
                .set_write_timeout(Some(self.request_timeout))
                .map_err(|e| e.to_string())?;
            let _ = stream.set_nodelay(true);
            self.conn = Some(stream);
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    fn round_trip_once(&mut self, req: &Request) -> Result<Response, String> {
        let payload = req.encode().map_err(|e| e.to_string())?;
        let stream = self.connection()?;
        write_frame_bytes(stream, &payload).map_err(|e| e.to_string())?;
        read_response(stream)
    }

    /// Sends one request, reconnecting and retrying on transport failure.
    /// Server-side [`Response::Error`]s are returned as
    /// [`ClientError::Server`] without retrying.
    ///
    /// Each answered attempt records its wall time into the
    /// `oracle.remote.round_trip` histogram on the installed tracer (the
    /// client's view of latency, to set against the server's
    /// `serve.query.latency`); each retry bumps `oracle.remote.retries`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] once retries are exhausted.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        let mut last = String::new();
        for attempt in 0..=self.retries {
            if attempt > 0 {
                ril_trace::counter("oracle.remote.retries", 1);
                std::thread::sleep(self.backoff * (1 << (attempt - 1).min(8)));
            }
            let t0 = std::time::Instant::now();
            match self.round_trip_once(req) {
                Ok(Response::Error { kind, message }) => {
                    ril_trace::timing("oracle.remote.round_trip", t0.elapsed());
                    return Err(ClientError::Server { kind, message });
                }
                Ok(resp) => {
                    ril_trace::timing("oracle.remote.round_trip", t0.elapsed());
                    return Ok(resp);
                }
                Err(msg) => {
                    // The stream is suspect; reconnect on the next try.
                    self.conn = None;
                    last = msg;
                }
            }
        }
        Err(ClientError::Transport(format!(
            "{} after {} attempts: {last}",
            self.addr,
            self.retries + 1
        )))
    }

    /// Sends many requests down one connection with up to the configured
    /// pipelining depth in flight, and returns the responses **in
    /// request order**. Typed server errors come back as
    /// [`Response::Error`] entries in the vector (the other requests in
    /// the window were already on the wire — the caller decides what a
    /// partial failure means).
    ///
    /// Unlike [`ServeClient::request`] there are no retries: a transport
    /// failure mid-window fails the whole call, because resending a
    /// half-acknowledged window could double-apply non-idempotent
    /// requests (a `morph`, a budgeted query).
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] on any socket or framing failure.
    pub fn request_pipelined(&mut self, reqs: &[Request]) -> Result<Vec<Response>, ClientError> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        let depth = self.pipeline;
        let result = (|| -> Result<Vec<Response>, String> {
            let stream = self.connection()?;
            let mut out = Vec::with_capacity(reqs.len());
            for window in reqs.chunks(depth) {
                let mut wire = Vec::new();
                for req in window {
                    let payload = req.encode().map_err(|e| e.to_string())?;
                    append_frame(&mut wire, &payload).map_err(|e| e.to_string())?;
                }
                stream.write_all(&wire).map_err(|e| e.to_string())?;
                stream.flush().map_err(|e| e.to_string())?;
                for _ in window {
                    out.push(read_response(stream)?);
                }
            }
            Ok(out)
        })();
        match result {
            Ok(out) => Ok(out),
            Err(msg) => {
                self.conn = None;
                Err(ClientError::Transport(format!("{}: {msg}", self.addr)))
            }
        }
    }

    /// Fetches the server's statistics snapshot.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Asks the server to shut down.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }
}

/// Reads and decodes one response frame.
fn read_response(stream: &mut TcpStream) -> Result<Response, String> {
    let payload = match read_frame_bytes(stream) {
        Ok(payload) => payload,
        Err(FrameError::Io(e))
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            return Err("request timed out".to_string())
        }
        Err(e) => return Err(e.to_string()),
    };
    Response::decode(&payload).map_err(|e| format!("bad response frame: {e}"))
}

/// An [`OracleSource`] backed by a chip on a remote server.
///
/// SAT, AppSAT, and ScanSAT take `&mut dyn OracleSource`, so swapping the
/// in-process [`ril_attacks::Oracle`] for this struct is the *entire*
/// change needed to attack over the network — including against a target
/// whose morph scheduler is live. The [`RemoteOracle::generation_changes`]
/// counter reports how often the chip re-keyed mid-attack.
pub struct RemoteOracle {
    client: ServeClient,
    chip: u64,
    inputs: usize,
    outputs: usize,
    queries: u64,
    generation: u64,
    generation_changes: u64,
    batch_blocks: u64,
    batch_patterns: u64,
    pending_delta: MorphDelta,
    delta_complete: bool,
}

impl RemoteOracle {
    /// Activates a fresh chip from `design` through `client` and returns
    /// an oracle bound to it. Build the client with
    /// [`ServeClient::builder`].
    ///
    /// # Errors
    ///
    /// Any [`ClientError`] from the activation round trip.
    pub fn activate_with(
        mut client: ServeClient,
        design: &DesignSpec,
    ) -> Result<RemoteOracle, ClientError> {
        let resp = client.request(&Request::Activate {
            design: design.clone(),
        })?;
        match resp {
            Response::Activated {
                chip,
                generation,
                inputs,
                outputs,
                ..
            } => Ok(RemoteOracle {
                client,
                chip,
                inputs,
                outputs,
                queries: 0,
                generation,
                generation_changes: 0,
                batch_blocks: 0,
                batch_patterns: 0,
                pending_delta: MorphDelta::default(),
                delta_complete: true,
            }),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Binds to an already-activated chip through `client` (widths cannot
    /// be probed over this protocol, so the caller supplies them).
    pub fn bind_with(
        client: ServeClient,
        chip: u64,
        inputs: usize,
        outputs: usize,
    ) -> RemoteOracle {
        RemoteOracle {
            client,
            chip,
            inputs,
            outputs,
            queries: 0,
            generation: 0,
            generation_changes: 0,
            batch_blocks: 0,
            batch_patterns: 0,
            pending_delta: MorphDelta::default(),
            // The chip may have morphed before we bound to it.
            delta_complete: false,
        }
    }

    /// The server-assigned chip id.
    pub fn chip(&self) -> u64 {
        self.chip
    }

    /// How many times a response arrived under a new key generation.
    pub fn generation_changes(&self) -> u64 {
        self.generation_changes
    }

    /// Lane-packed `QueryBatch` round trips issued so far.
    pub fn batch_blocks(&self) -> u64 {
        self.batch_blocks
    }

    /// Individual patterns shipped inside those batch round trips (each
    /// also counted in [`OracleSource::queries`]).
    pub fn batch_patterns(&self) -> u64 {
        self.batch_patterns
    }

    /// Manually re-keys the remote chip and returns the *net* key delta
    /// the server published — which key bits now hold a different value.
    /// The delta is also folded into [`RemoteOracle::take_delta`]'s
    /// accumulator.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn morph(&mut self) -> Result<MorphDelta, ClientError> {
        match self.client.request(&Request::Morph { chip: self.chip })? {
            Response::Morphed {
                generation,
                changed_bits,
                ..
            } => {
                let delta = MorphDelta::from_changed_bits(changed_bits);
                self.pending_delta.merge(&delta);
                if generation != self.generation {
                    self.generation_changes += 1;
                    self.generation = generation;
                }
                Ok(delta)
            }
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Drains the accumulated key delta since the last call (or since
    /// activation): `Some(delta)` when every generation change seen so
    /// far arrived with a published delta, `None` when at least one morph
    /// happened *behind* a query/scheduler (those responses carry only
    /// the new generation, not the delta) — the caller must then fall
    /// back to a full re-check rather than a dirty-cone-only one.
    /// Either way the accumulator resets.
    pub fn take_delta(&mut self) -> Option<MorphDelta> {
        let complete = self.delta_complete;
        self.delta_complete = true;
        let delta = std::mem::take(&mut self.pending_delta);
        complete.then_some(delta)
    }

    /// The underlying client (for `stats` / `shutdown_server`).
    pub fn client(&mut self) -> &mut ServeClient {
        &mut self.client
    }

    fn observe_generation(&mut self, generation: u64) {
        if generation != self.generation {
            self.generation_changes += 1;
            self.generation = generation;
            // This generation bump was *not* accompanied by a delta (it
            // rode a query response), so the accumulator is incomplete.
            self.delta_complete = false;
        }
    }
}

impl OracleSource for RemoteOracle {
    fn input_width(&self) -> usize {
        self.inputs
    }

    fn output_width(&self) -> usize {
        self.outputs
    }

    fn try_query(&mut self, inputs: &[bool]) -> Result<Vec<bool>, OracleError> {
        let resp = self
            .client
            .request(&Request::Query {
                chip: self.chip,
                inputs: inputs.to_vec(),
            })
            .map_err(OracleError::from)?;
        match resp {
            Response::Outputs { bits, generation } => {
                self.queries += 1;
                self.observe_generation(generation);
                Ok(bits)
            }
            other => Err(OracleError::Protocol {
                kind: "unexpected_response".to_string(),
                message: format!("{other:?}"),
            }),
        }
    }

    fn try_query_batch(&mut self, block: &PatternBlock) -> Result<ResponseBlock, OracleError> {
        let resp = self
            .client
            .request(&Request::QueryBatch {
                chip: self.chip,
                patterns: block.unpack(),
            })
            .map_err(OracleError::from)?;
        match resp {
            // One wire round trip answered the whole block; the server
            // stamps it with the single generation it was answered under
            // (a scheduled morph fires only after the batch).
            Response::Batch { rows, generation } => {
                if rows.len() != block.lanes() {
                    return Err(OracleError::Protocol {
                        kind: "bad_batch".to_string(),
                        message: format!(
                            "sent {} patterns, server answered {} rows",
                            block.lanes(),
                            rows.len()
                        ),
                    });
                }
                self.queries += block.lanes() as u64;
                self.batch_blocks += 1;
                self.batch_patterns += block.lanes() as u64;
                self.observe_generation(generation);
                Ok(ResponseBlock::pack(&rows))
            }
            other => Err(OracleError::Protocol {
                kind: "unexpected_response".to_string(),
                message: format!("{other:?}"),
            }),
        }
    }

    fn queries(&self) -> u64 {
        self.queries
    }

    fn generation(&self) -> Option<u64> {
        Some(self.generation)
    }
}
