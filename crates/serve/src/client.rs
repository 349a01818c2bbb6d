//! The client side: a framed TCP client with reconnect/retry and
//! request pipelining — plus the [`RemoteOracle`] adapter that lets every
//! oracle-guided attack in `ril-attacks` run unchanged against a live
//! (morphing) server.
//!
//! Construction goes through [`ServeClient::builder`], whose one setting
//! is the address, validated at [`ClientBuilder::build`]. Timeouts, the
//! retry policy and the pipelining depth are the constants below. Every
//! frame is binary in both directions ([`crate::codec`]); a connection
//! needs no handshake, so the first request on a fresh stream is already
//! a real one.

use crate::codec::{append_frame, read_frame_bytes, write_frame_bytes, PROTOCOL_VERSION};
use crate::protocol::{DesignSpec, ErrorKind, FrameError, Request, Response, ServerStats};
use ril_attacks::{OracleError, OracleSource, PatternBlock, ResponseBlock};
use std::io::Write;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// TCP connect timeout.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Per-request read/write timeout.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(2);
/// Transport retries per request (reconnect + resend).
const RETRIES: u32 = 3;
/// Backoff before the first retry, doubling per attempt.
const BACKOFF: Duration = Duration::from_millis(50);
/// Max requests in flight per [`ServeClient::request_pipelined`] window.
const PIPELINE_DEPTH: usize = 32;

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
}

impl ClientBuilder {
    /// Validates and builds the client. No I/O happens here; the first
    /// request connects.
    ///
    /// # Errors
    ///
    /// [`ClientError::Config`] for an empty or port-less address.
    pub fn build(self) -> Result<ServeClient, ClientError> {
        if self.addr.is_empty() {
            return Err(ClientError::Config("address is empty".into()));
        }
        if !self.addr.contains(':') {
            return Err(ClientError::Config(format!(
                "address `{}` has no port",
                self.addr
            )));
        }
        Ok(ServeClient {
            addr: self.addr,
            conn: None,
        })
    }
}

/// A framed request/response client with connection reuse: one TCP stream
/// carries every request until it fails, then the next request
/// reconnects (bounded retries, exponential backoff).
pub struct ServeClient {
    addr: String,
    conn: Option<TcpStream>,
}

impl ServeClient {
    /// Starts a builder for a client of `addr` (e.g. `127.0.0.1:4615`).
    pub fn builder(addr: impl Into<String>) -> ClientBuilder {
        ClientBuilder { addr: addr.into() }
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
            let stream =
                TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT).map_err(|e| e.to_string())?;
            stream
                .set_read_timeout(Some(REQUEST_TIMEOUT))
                .map_err(|e| e.to_string())?;
            stream
                .set_write_timeout(Some(REQUEST_TIMEOUT))
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
        for attempt in 0..=RETRIES {
            if attempt > 0 {
                ril_trace::counter("oracle.remote.retries", 1);
                std::thread::sleep(BACKOFF * (1 << (attempt - 1)));
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
            RETRIES + 1
        )))
    }

    /// Sends many requests down one connection with up to 32 in flight,
    /// and returns the responses **in request order**. Typed server errors come back as
    /// [`Response::Error`] entries in the vector (the other requests in
    /// the window were already on the wire — the caller decides what a
    /// partial failure means).
    ///
    /// Unlike [`ServeClient::request`] there are no retries: a transport
    /// failure mid-window fails the whole call, because resending a
    /// half-acknowledged window could double-apply non-idempotent
    /// requests (a budgeted query, an activation).
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] on any socket or framing failure.
    pub fn request_pipelined(&mut self, reqs: &[Request]) -> Result<Vec<Response>, ClientError> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        let result = (|| -> Result<Vec<Response>, String> {
            let stream = self.connection()?;
            let mut out = Vec::with_capacity(reqs.len());
            for window in reqs.chunks(PIPELINE_DEPTH) {
                let mut wire = Vec::new();
                for req in window {
                    let payload = req.encode().map_err(|e| e.to_string())?;
                    append_frame(&mut wire, &payload).map_err(|e| e.to_string())?;
                }
                // The server answers as it reads and blocks writing answers
                // nobody reads, so a window larger than the socket buffers
                // is written from a second thread while this one reads.
                let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
                std::thread::scope(|s| {
                    let sent = s.spawn(move || writer.write_all(&wire));
                    let read = window.iter().try_for_each(|_| {
                        out.push(read_response(stream)?);
                        Ok::<(), String>(())
                    });
                    if read.is_err() {
                        let _ = stream.shutdown(Shutdown::Both);
                    }
                    let sent = sent.join().expect("a socket write does not panic");
                    read?;
                    sent.map_err(|e| e.to_string())
                })?;
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
            }),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
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

    /// The underlying client (for `stats` / `shutdown_server`).
    pub fn client(&mut self) -> &mut ServeClient {
        &mut self.client
    }

    fn observe_generation(&mut self, generation: u64) {
        if generation != self.generation {
            self.generation_changes += 1;
            self.generation = generation;
        }
    }

    /// Checks that every answered row is as wide as the chip's outputs: an
    /// attack indexes rows by output position, so a short or ragged answer
    /// must stop here as a typed error.
    fn check_widths(&self, rows: &[Vec<bool>]) -> Result<(), OracleError> {
        match rows.iter().find(|row| row.len() != self.outputs) {
            Some(row) => Err(OracleError::Protocol {
                kind: "bad_width".to_string(),
                message: format!(
                    "chip {} has {} outputs, server answered a {}-bit row",
                    self.chip,
                    self.outputs,
                    row.len()
                ),
            }),
            None => Ok(()),
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
                self.check_widths(std::slice::from_ref(&bits))?;
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
                self.check_widths(&rows)?;
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
