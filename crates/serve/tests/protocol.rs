//! Protocol-robustness tests: hostile and broken clients must get typed
//! errors, never panic a connection thread or wedge the service.

use ril_serve::{
    read_frame_bytes, write_frame_bytes, ClientError, DesignSpec, ErrorKind, RemoteOracle, Request,
    Response, ServeClient, ServeConfig, Server, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn small_design() -> DesignSpec {
    DesignSpec {
        benchmark: "adder:6".to_string(),
        spec: "2x2".to_string(),
        blocks: 1,
        seed: 3,
        scan: false,
        zero_se: false,
    }
}

fn client(addr: impl Into<String>) -> ServeClient {
    ServeClient::builder(addr).build().unwrap()
}

/// A one-connection stand-in for a server: it accepts one client, stops
/// listening, and answers each request frame with `answer`'s response
/// until `answer` returns `None`, when it hangs up.
fn scripted_server(answer: impl Fn(&Request) -> Option<Response> + Send + 'static) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        drop(listener);
        while let Ok(payload) = read_frame_bytes(&mut stream) {
            let req = Request::decode(&payload).expect("the client sends binary frames");
            let Some(resp) = answer(&req) else { break };
            write_frame_bytes(&mut stream, &resp.encode().unwrap()).unwrap();
        }
    });
    addr
}

/// The `Activated` frame a real server would send for `design`.
fn activated(design: &DesignSpec) -> Response {
    let locked = design.build().unwrap();
    let oracle = ril_attacks::Oracle::new(&locked).unwrap();
    Response::Activated {
        chip: 1,
        generation: 0,
        inputs: oracle.input_width(),
        outputs: oracle.output_width(),
        key_bits: locked.keys.bits().len(),
    }
}

/// Reads and decodes one binary response frame.
fn read_response(stream: &mut TcpStream) -> Response {
    Response::decode(&read_frame_bytes(stream).unwrap()).expect("a binary response frame")
}

/// Reads one response and returns its error, failing on anything else.
fn read_error(stream: &mut TcpStream) -> (ErrorKind, String) {
    match read_response(stream) {
        Response::Error { kind, message } => (kind, message),
        other => panic!("expected a typed error, got {other:?}"),
    }
}

/// A raw connection with a read timeout, for scripting hostile frames.
fn raw_stream(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
}

/// Sends a binary `stats` request and expects the snapshot back.
fn assert_stats_answered(stream: &mut TcpStream) {
    write_frame_bytes(stream, &Request::Stats.encode().unwrap()).unwrap();
    match read_response(stream) {
        Response::Stats(_) => {}
        other => panic!("expected a stats snapshot, got {other:?}"),
    }
}

#[test]
fn malformed_frames_get_typed_errors() {
    let handle = Server::start(ServeConfig::default()).unwrap();
    let mut stream = raw_stream(handle.addr());

    // Valid frame, garbage payload: a typed error, and the stream stays
    // aligned (the length prefix was intact).
    write_frame_bytes(&mut stream, b"this is not a frame").unwrap();
    assert_eq!(read_error(&mut stream).0, ErrorKind::Malformed);
    assert_stats_answered(&mut stream);
    drop(stream);

    // A well-formed request the server must refuse is typed too.
    let mut client = client(handle.addr().to_string());
    let err = client
        .request(&Request::Query {
            chip: 1,
            inputs: vec![false; 4],
        })
        .expect_err("no chip exists yet");
    assert!(matches!(
        err,
        ClientError::Server {
            kind: ErrorKind::UnknownChip,
            ..
        }
    ));
    handle.shutdown();
}

#[test]
fn oversized_frames_are_refused_before_the_body_is_read() {
    let handle = Server::start(ServeConfig::default()).unwrap();
    let mut stream = raw_stream(handle.addr());

    // Declare a 100 MiB frame; send no body at all. The server must
    // answer from the header alone.
    let declared: u32 = 100 * 1024 * 1024;
    assert!(declared as usize > MAX_FRAME_BYTES);
    stream.write_all(&declared.to_be_bytes()).unwrap();
    stream.flush().unwrap();
    assert_eq!(read_error(&mut stream).0, ErrorKind::Oversized);
    // The server closes the now-unframed connection.
    let mut rest = Vec::new();
    let n = stream.read_to_end(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "connection must close after an oversized frame");
    handle.shutdown();
}

#[test]
fn truncated_frames_do_not_wedge_the_service() {
    let handle = Server::start(ServeConfig::default()).unwrap();

    // Half a header, then hang up.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(&[0u8, 0]).unwrap();
    drop(stream);

    // A full header promising a body that never comes, then hang up.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(&64u32.to_be_bytes()).unwrap();
    stream.write_all(b"partial").unwrap();
    drop(stream);

    // The service keeps answering new clients.
    let mut client = client(handle.addr().to_string());
    let stats = client.stats().unwrap();
    assert_eq!(stats.chips.len(), 0);
    handle.shutdown();
}

#[test]
fn bad_query_widths_are_typed() {
    let handle = Server::start(ServeConfig::default()).unwrap();
    let mut client = client(handle.addr().to_string());
    let chip = match client
        .request(&Request::Activate {
            design: small_design(),
        })
        .unwrap()
    {
        Response::Activated { chip, .. } => chip,
        other => panic!("activation failed: {other:?}"),
    };
    let err = client
        .request(&Request::Query {
            chip,
            inputs: vec![true; 3],
        })
        .expect_err("wrong width must be rejected");
    assert!(matches!(
        err,
        ClientError::Server {
            kind: ErrorKind::BadWidth,
            ..
        }
    ));
    handle.shutdown();
}

#[test]
fn query_limits_rate_limit_the_chip() {
    let handle = Server::start(ServeConfig {
        query_limit: Some(4),
        ..ServeConfig::default()
    })
    .unwrap();
    let design = small_design();
    let mut oracle =
        RemoteOracle::activate_with(client(handle.addr().to_string()), &design).unwrap();
    use ril_attacks::OracleSource;
    let width = oracle.input_width();
    for _ in 0..4 {
        oracle.try_query(&vec![false; width]).unwrap();
    }
    let err = oracle
        .try_query(&vec![false; width])
        .expect_err("budget is exhausted");
    assert_eq!(
        err,
        ril_attacks::OracleError::Protocol {
            kind: "rate_limited".to_string(),
            message: format!("chip {} exhausted its 4-query budget", oracle.chip()),
        }
    );
    handle.shutdown();
}

#[test]
fn unknown_benchmarks_fail_activation_with_internal() {
    let handle = Server::start(ServeConfig::default()).unwrap();
    let mut client = client(handle.addr().to_string());
    let err = client
        .request(&Request::Activate {
            design: DesignSpec {
                benchmark: "no-such-circuit".to_string(),
                ..small_design()
            },
        })
        .expect_err("unknown benchmark");
    assert!(matches!(
        err,
        ClientError::Server {
            kind: ErrorKind::Internal,
            ..
        }
    ));
    handle.shutdown();
}

#[test]
fn dead_servers_produce_transport_errors_after_retries() {
    // Bind a port, then close it so nothing listens there.
    let dead_addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let err = client(dead_addr.to_string())
        .request(&Request::Stats)
        .expect_err("nothing listens");
    match err {
        // One attempt plus three retries.
        ClientError::Transport(msg) => {
            assert!(msg.contains("4 attempts"), "retry count missing: {msg}")
        }
        other => panic!("expected a transport error, got {other:?}"),
    }

    // The same failure through the OracleSource surface is a typed
    // OracleError, which the attack loop turns into AttackResult::Failed:
    // a server that activates the chip and then goes away.
    use ril_attacks::OracleSource;
    let design = small_design();
    let reply = activated(&design);
    let addr =
        scripted_server(move |req| matches!(req, Request::Activate { .. }).then(|| reply.clone()));
    let mut oracle = RemoteOracle::activate_with(client(addr.to_string()), &design).unwrap();
    let width = oracle.input_width();
    match oracle.try_query(&vec![false; width]) {
        Err(ril_attacks::OracleError::Transport(_)) => {}
        other => panic!("expected a transport oracle error, got {other:?}"),
    }
}

/// A server that answers with rows of the wrong width gets a typed
/// protocol error on both query paths, and an attack over it fails
/// cleanly instead of indexing past the end of a short row.
#[test]
fn short_and_ragged_answers_are_typed_errors() {
    use ril_attacks::prelude::*;
    fn bad_width(e: Option<OracleError>) -> bool {
        matches!(e, Some(OracleError::Protocol { kind, .. }) if kind == "bad_width")
    }
    let design = small_design();
    let reply = activated(&design);
    let Response::Activated { outputs, .. } = reply else {
        unreachable!()
    };
    // Singles come back one bit short; in a batch, row 1 is one bit long.
    let lying_chip = || {
        let reply = reply.clone();
        scripted_server(move |req| {
            Some(match req {
                Request::Activate { .. } => reply.clone(),
                Request::Query { .. } => Response::Outputs {
                    bits: vec![false; outputs - 1],
                    generation: 0,
                },
                Request::QueryBatch { patterns, .. } => Response::Batch {
                    rows: (0..patterns.len())
                        .map(|i| vec![true; outputs + usize::from(i == 1)])
                        .collect(),
                    generation: 0,
                },
                _ => return None,
            })
        })
    };
    let mut oracle =
        RemoteOracle::activate_with(client(lying_chip().to_string()), &design).unwrap();
    let width = oracle.input_width();
    assert!(bad_width(oracle.try_query(&vec![false; width]).err()));
    let block = PatternBlock::pack(&vec![vec![false; width]; 3]);
    assert!(bad_width(oracle.try_query_batch(&block).err()));
    assert_eq!(oracle.queries(), 0, "no answer of the wrong width counts");

    let mut oracle =
        RemoteOracle::activate_with(client(lying_chip().to_string()), &design).unwrap();
    let view = attacker_view(&design.build().unwrap());
    let report =
        ril_attacks::satattack::sat_attack(&view, &mut oracle, &SatAttackConfig::default());
    assert!(
        matches!(&report.result, AttackResult::Failed(msg) if msg.contains("bad_width")),
        "{report}"
    );
}

#[test]
fn shutdown_op_drains_the_server() {
    let handle = Server::start(ServeConfig::default()).unwrap();
    let addr = handle.addr();
    client(addr.to_string()).shutdown_server().unwrap();
    // Joins every thread; must not hang.
    handle.shutdown();
    // The listener is gone: a fresh connection is refused (or, at worst,
    // accepted by nobody and then reset).
    std::thread::sleep(Duration::from_millis(50));
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err();
    assert!(refused, "listener should be closed after shutdown");
}

#[test]
fn shutdown_op_releases_a_waiting_handle() {
    // `rilock serve` blocks in `wait()` until a client sends `shutdown`;
    // the op itself must wake the acceptor out of its blocking `accept`.
    let handle = Arc::new(Server::start(ServeConfig::default()).unwrap());
    let (done, waited) = mpsc::channel();
    {
        let handle = Arc::clone(&handle);
        std::thread::spawn(move || {
            handle.wait();
            let _ = done.send(());
        });
    }
    client(handle.addr().to_string()).shutdown_server().unwrap();
    waited
        .recv_timeout(Duration::from_secs(2))
        .expect("wait() must return within 2 s of the shutdown op");
}

#[test]
fn a_stalled_peer_delays_no_one_and_is_told_about_the_drain() {
    let handle = Server::start(ServeConfig::default()).unwrap();
    // Half a frame, and the socket stays open.
    let mut stalled = raw_stream(handle.addr());
    stalled.write_all(&[0u8, 0]).unwrap();
    stalled.flush().unwrap();

    let design = small_design();
    let mut oracle = RemoteOracle::activate_with(client(handle.addr().to_string()), &design)
        .expect("activation past a stalled peer");
    use ril_attacks::OracleSource;
    let width = oracle.input_width();
    let started = Instant::now();
    for i in 0..100 {
        let pattern: Vec<bool> = (0..width).map(|b| (i >> (b % 8)) & 1 == 1).collect();
        oracle.try_query(&pattern).unwrap();
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "100 queries took {:?} beside a stalled peer",
        started.elapsed()
    );

    handle.shutdown();
    assert_eq!(read_error(&mut stalled).0, ErrorKind::ShuttingDown);
}

#[test]
fn garbled_binary_frames_answer_typed_errors_and_keep_the_stream() {
    let handle = Server::start(ServeConfig::default()).unwrap();
    let mut stream = raw_stream(handle.addr());

    // A valid binary query, truncated mid-body: the decoder must reject
    // it as a typed Malformed error.
    let good = Request::Query {
        chip: 1,
        inputs: vec![true; 8],
    }
    .encode()
    .unwrap();
    write_frame_bytes(&mut stream, &good[..good.len() - 2]).unwrap();
    assert_eq!(read_error(&mut stream).0, ErrorKind::Malformed);

    // The length prefix was intact, so framing stayed aligned: a
    // well-formed request on the same stream still gets its answer.
    assert_stats_answered(&mut stream);
    handle.shutdown();
}

#[test]
fn json_frames_get_a_binary_malformed_error_and_keep_the_stream() {
    let handle = Server::start(ServeConfig::default()).unwrap();
    let mut stream = raw_stream(handle.addr());
    write_frame_bytes(&mut stream, br#"{"op":"stats"}"#).unwrap();
    let (kind, message) = read_error(&mut stream);
    assert_eq!(kind, ErrorKind::Malformed);
    assert!(message.contains("magic"), "{message}");
    assert_stats_answered(&mut stream);
    handle.shutdown();
}

#[test]
fn unknown_version_bytes_get_a_malformed_error_naming_the_version() {
    let handle = Server::start(ServeConfig::default()).unwrap();
    let mut stream = raw_stream(handle.addr());
    let mut frame = Request::Stats.encode().unwrap();
    assert_eq!(frame[1], PROTOCOL_VERSION);
    frame[1] = 2;
    write_frame_bytes(&mut stream, &frame).unwrap();
    let (kind, message) = read_error(&mut stream);
    assert_eq!(kind, ErrorKind::Malformed);
    assert!(message.contains("version 2"), "{message}");
    assert_stats_answered(&mut stream);
    handle.shutdown();
}

#[test]
fn retired_morph_opcode_gets_a_malformed_error_and_keeps_the_stream() {
    let handle = Server::start(ServeConfig::default()).unwrap();
    let chip = handle.activate(&small_design()).unwrap();
    let mut stream = raw_stream(handle.addr());
    // 0x05 once asked for a manual morph of the chip named in its body.
    let mut frame = vec![ril_serve::codec::BIN_MAGIC, PROTOCOL_VERSION, 0x05];
    frame.extend_from_slice(&chip.to_le_bytes());
    write_frame_bytes(&mut stream, &frame).unwrap();
    let (kind, message) = read_error(&mut stream);
    assert_eq!(kind, ErrorKind::Malformed);
    assert!(message.contains("0x05"), "{message}");
    assert_stats_answered(&mut stream);
    handle.shutdown();
}

#[test]
fn builder_rejects_bad_configuration_with_typed_errors() {
    for bad in [
        ServeClient::builder("").build(),
        ServeClient::builder("localhost").build(), // no port
    ] {
        match bad {
            Err(ClientError::Config(_)) => {}
            Err(other) => panic!("expected a config error, got {other:?}"),
            Ok(_) => panic!("expected a config error, got a client"),
        }
    }
    // Building does not connect, so the dead address is irrelevant.
    ServeClient::builder("127.0.0.1:1").build().unwrap();
}
