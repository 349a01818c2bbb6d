//! Protocol-robustness tests: hostile and broken clients must get typed
//! errors, never panic a worker or wedge the service.

use ril_serve::{
    read_frame_bytes, write_frame_bytes, ClientError, DesignSpec, ErrorKind, RemoteOracle, Request,
    Response, ServeClient, ServeConfig, Server, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

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

fn fast_client(addr: impl Into<String>) -> ServeClient {
    ServeClient::builder(addr)
        .timeout(Duration::from_secs(2))
        .retries(1)
        .backoff(Duration::from_millis(10))
        .build()
        .unwrap()
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
    let mut client = fast_client(handle.addr().to_string());
    let err = client
        .request(&Request::Morph { chip: 1 })
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
    let mut client = fast_client(handle.addr().to_string());
    let stats = client.stats().unwrap();
    assert_eq!(stats.chips.len(), 0);
    handle.shutdown();
}

#[test]
fn bad_query_widths_are_typed() {
    let handle = Server::start(ServeConfig::default()).unwrap();
    let mut client = fast_client(handle.addr().to_string());
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
    let client = ServeClient::builder(handle.addr().to_string())
        .build()
        .unwrap();
    let mut oracle = RemoteOracle::activate_with(client, &design).unwrap();
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
    let mut client = fast_client(handle.addr().to_string());
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
    let mut client = ServeClient::builder(dead_addr.to_string())
        .timeout(Duration::from_millis(200))
        .retries(2)
        .backoff(Duration::from_millis(1))
        .build()
        .unwrap();
    let err = client
        .request(&Request::Stats)
        .expect_err("nothing listens");
    match err {
        ClientError::Transport(msg) => {
            assert!(msg.contains("3 attempts"), "retry count missing: {msg}")
        }
        other => panic!("expected a transport error, got {other:?}"),
    }

    // The same failure through the OracleSource surface is a typed
    // OracleError, which the attack loop turns into AttackResult::Failed.
    use ril_attacks::OracleSource;
    let dead_client = ServeClient::builder(dead_addr.to_string())
        .timeout(Duration::from_millis(200))
        .retries(1)
        .backoff(Duration::from_millis(1))
        .build()
        .unwrap();
    let mut oracle = RemoteOracle::bind_with(dead_client, 1, 4, 4);
    match oracle.try_query(&[false; 4]) {
        Err(ril_attacks::OracleError::Transport(_)) => {}
        other => panic!("expected a transport oracle error, got {other:?}"),
    }
}

#[test]
fn shutdown_op_drains_the_server() {
    let handle = Server::start(ServeConfig::default()).unwrap();
    let addr = handle.addr();
    let mut client = fast_client(addr.to_string());
    client.shutdown_server().unwrap();
    handle.shutdown(); // joins every thread; must not hang
                       // The listener is gone: a fresh connection is refused (or, at worst,
                       // accepted by nobody and then reset).
    std::thread::sleep(Duration::from_millis(50));
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err();
    assert!(refused, "listener should be closed after shutdown");
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
fn builder_rejects_bad_configuration_with_typed_errors() {
    for bad in [
        ServeClient::builder("").build(),
        ServeClient::builder("localhost").build(), // no port
        ServeClient::builder("127.0.0.1:1").pipeline(0).build(),
        ServeClient::builder("127.0.0.1:1").pipeline(4096).build(),
        ServeClient::builder("127.0.0.1:1")
            .timeout(Duration::ZERO)
            .build(),
    ] {
        match bad {
            Err(ClientError::Config(_)) => {}
            Err(other) => panic!("expected a config error, got {other:?}"),
            Ok(_) => panic!("expected a config error, got a client"),
        }
    }
    // A fully-specified builder is fine (building does not connect, so
    // the dead address is irrelevant).
    ServeClient::builder("127.0.0.1:1")
        .pipeline(64)
        .build()
        .unwrap();
}
