//! One blocking thread per connection: the accept and frame loop that
//! the oracle server and `ril-bench`'s farm coordinator both run.
//!
//! The acceptor blocks in `accept` and gives each connection a thread of
//! its own. That thread blocks in `read`, answers every complete frame
//! buffered so far in order (a client may pipeline many requests before
//! it reads a response), and writes the answers with one blocking write.
//! Nothing on the request path sleeps, spins or polls: `std` has no
//! readiness API, so a thread parked in `read` or `accept` is the only
//! way to wake the moment bytes arrive.
//!
//! Shutdown wakes the parked threads explicitly. [`Stop::trigger`] sets
//! the flag and connects to the listener once, which wakes the acceptor.
//! The acceptor closes the listener, then shuts the read half of every
//! live connection, so each blocked `read` returns end-of-stream. Each
//! connection writes its [`Handler::farewell`] frame and exits. One still
//! stuck writing to a peer that does not read after a 500-ms grace is
//! cut off. The acceptor joins every connection thread before it returns.

use crate::codec::append_frame;
use crate::protocol::MAX_FRAME_BYTES;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long shutdown waits for connections to write their farewell
/// frames before it cuts the stragglers off.
const DRAIN_GRACE: Duration = Duration::from_millis(500);

/// Bytes pulled off a socket per `read`.
const READ_CHUNK: usize = 16 * 1024;

/// What a connection loop does with the frames it reads.
pub trait Handler: Send + Sync + 'static {
    /// Answers one complete frame payload. Returns the response payload
    /// (at most [`MAX_FRAME_BYTES`]) and whether the connection closes
    /// once it is written.
    fn answer(&self, payload: &[u8]) -> (Vec<u8>, bool);

    /// The response to a header that declares `len` bytes, more than
    /// [`MAX_FRAME_BYTES`]. The stream can never find the next frame
    /// boundary, so the connection closes after it.
    fn oversized(&self, len: usize) -> Vec<u8>;

    /// The last frame a connection still open at shutdown receives.
    fn farewell(&self) -> Option<Vec<u8>>;

    /// Runs first on every connection thread; the returned guard lives
    /// as long as the thread (a trace context, say).
    fn enter(&self) -> Option<ril_trace::ContextGuard> {
        None
    }
}

/// The shutdown signal of one acceptor: a flag, plus the address that
/// wakes the acceptor out of `accept`. Clones share the signal.
#[derive(Debug, Clone)]
pub struct Stop(Arc<StopInner>);

#[derive(Debug)]
struct StopInner {
    flag: AtomicBool,
    wake: SocketAddr,
}

impl Stop {
    /// A signal for the acceptor that will run on `listener`.
    ///
    /// # Errors
    ///
    /// Propagates a failure to read the listener's address.
    pub fn new(listener: &TcpListener) -> std::io::Result<Stop> {
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Ok(Stop(Arc::new(StopInner {
            flag: AtomicBool::new(false),
            wake,
        })))
    }

    /// Whether shutdown has begun.
    pub fn is_set(&self) -> bool {
        self.0.flag.load(Ordering::SeqCst)
    }

    /// Begins shutdown: sets the flag and wakes the acceptor with one
    /// connection of its own. Idempotent.
    pub fn trigger(&self) {
        if !self.0.flag.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.0.wake);
        }
    }
}

/// Spawns the acceptor: it serves every connection on `listener` with
/// `handler` until `stop` triggers, then drains and joins them all.
pub fn spawn_acceptor<H: Handler>(
    listener: TcpListener,
    handler: Arc<H>,
    stop: Stop,
) -> JoinHandle<()> {
    std::thread::spawn(move || accept_loop(listener, &handler, &stop))
}

fn accept_loop<H: Handler>(listener: TcpListener, handler: &Arc<H>, stop: &Stop) {
    // Every connection thread holds a sender; the channel disconnects
    // once the last of them has exited.
    let (alive, all_exited) = mpsc::channel::<()>();
    let mut conns: Vec<(TcpStream, JoinHandle<()>)> = Vec::new();
    for stream in listener.incoming() {
        if stop.is_set() {
            break;
        }
        // A failed accept costs only that one connection attempt.
        let Ok(stream) = stream else { continue };
        let Ok(peer) = stream.try_clone() else {
            continue;
        };
        let _ = stream.set_nodelay(true);
        for (_, thread) in conns.extract_if(.., |(_, thread)| thread.is_finished()) {
            let _ = thread.join();
        }
        let (handler, stop, alive) = (Arc::clone(handler), stop.clone(), alive.clone());
        let thread = std::thread::spawn(move || {
            let _alive = alive;
            serve_conn(stream, &*handler, &stop);
        });
        conns.push((peer, thread));
    }
    drop(listener);
    drop(alive);
    for (peer, _) in &conns {
        let _ = peer.shutdown(Shutdown::Read);
    }
    let _ = all_exited.recv_timeout(DRAIN_GRACE);
    for (peer, thread) in conns {
        let _ = peer.shutdown(Shutdown::Both);
        let _ = thread.join();
    }
}

/// One connection: read, answer every complete frame, write, repeat,
/// until the peer hangs up, a reply closes the stream, or shutdown.
fn serve_conn<H: Handler>(mut stream: TcpStream, handler: &H, stop: &Stop) {
    let _context = handler.enter();
    let mut inbox: Vec<u8> = Vec::new();
    let mut outbox: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    loop {
        let mut used = 0;
        let mut close = false;
        // Answer every complete frame buffered so far, in order.
        while !close {
            let rest = &inbox[used..];
            let Some(header) = rest.first_chunk::<4>() else {
                break;
            };
            let len = u32::from_be_bytes(*header) as usize;
            let reply = if len > MAX_FRAME_BYTES {
                close = true;
                handler.oversized(len)
            } else if let Some(payload) = rest.get(4..4 + len) {
                used += 4 + len;
                let (reply, last) = handler.answer(payload);
                close = last;
                reply
            } else {
                break;
            };
            if append_frame(&mut outbox, &reply).is_err() {
                close = true;
            }
        }
        inbox.drain(..used);
        if stream.write_all(&outbox).is_err() || close {
            break;
        }
        outbox.clear();
        match stream.read(&mut chunk) {
            Ok(0) => {
                // The peer hung up, or shutdown closed the read half.
                if stop.is_set() {
                    if let Some(farewell) = handler.farewell() {
                        let _ = append_frame(&mut outbox, &farewell);
                        let _ = stream.write_all(&outbox);
                    }
                }
                break;
            }
            Ok(n) => inbox.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    // The acceptor holds a clone of this socket, so dropping ours alone
    // would not close the connection.
    let _ = stream.shutdown(Shutdown::Both);
}
