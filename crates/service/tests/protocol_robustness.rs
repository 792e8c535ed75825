//! Frame-layer robustness: a hostile or buggy peer must produce typed
//! errors, never a wedged or crashed server. Recoverable corruption (bad
//! checksum, stale version, malformed payload) leaves the connection
//! usable; unrecoverable corruption (oversized declaration, mid-frame
//! truncation) closes only that connection, and the server keeps accepting.
//!
//! Both front ends run the same frame loop, so every frame-level case runs
//! against a single-process `Server` and against a 1-shard coordinator
//! whose worker is spawned from the `rlc-serviced` binary.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::OnceLock;

use rlc_service::protocol::{Request, Response, WireSessionOptions};
use rlc_service::wire::{read_frame, write_frame, MAX_PAYLOAD};
use rlc_service::{code, Server, ShardServer};

fn start_server() -> SocketAddr {
    Server::bind("127.0.0.1:0", None, None)
        .expect("bind test server")
        .serve_in_background()
}

/// A 1-shard coordinator, spawned once and shared by every test.
fn coordinator() -> SocketAddr {
    static FLEET: OnceLock<SocketAddr> = OnceLock::new();
    *FLEET.get_or_init(|| {
        let exe = Path::new(env!("CARGO_BIN_EXE_rlc-serviced"));
        ShardServer::spawn("127.0.0.1:0", 1, None, None, exe)
            .expect("spawn 1-shard fleet")
            .serve_in_background()
            .0
    })
}

/// Runs `check` against each front end; the one under test is named on
/// stderr, which a failing test prints.
fn on_each_front_end(check: impl Fn(SocketAddr)) {
    for (name, addr) in [("server", start_server()), ("coordinator", coordinator())] {
        eprintln!("front end: {name}");
        check(addr);
    }
}

fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    BufReader::new(TcpStream::connect(addr).expect("connect to test server"))
}

/// A well-formed frame for the given request, as raw bytes.
fn frame(request: &Request) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &request.encode()).expect("encode frame");
    bytes
}

fn send_raw(conn: &mut BufReader<TcpStream>, bytes: &[u8]) {
    conn.get_mut().write_all(bytes).expect("send raw frame");
    conn.get_mut().flush().expect("flush");
}

fn expect_response(conn: &mut BufReader<TcpStream>) -> Response {
    let payload = read_frame(conn)
        .expect("read response frame")
        .expect("server closed unexpectedly");
    Response::decode(&payload).expect("decode response")
}

fn expect_error_code(conn: &mut BufReader<TcpStream>, want: u16) {
    match expect_response(conn) {
        Response::Error { code, .. } => assert_eq!(code, want),
        other => panic!("expected error code {want}, got {other:?}"),
    }
}

fn ping_pong(conn: &mut BufReader<TcpStream>) {
    send_raw(conn, &frame(&Request::Ping));
    assert_eq!(expect_response(conn), Response::Pong);
}

#[test]
fn bad_checksum_is_typed_and_the_connection_recovers() {
    on_each_front_end(|addr| {
        let mut conn = connect(addr);
        let mut bytes = frame(&Request::Ping);
        *bytes.last_mut().unwrap() ^= 0xff;
        send_raw(&mut conn, &bytes);
        expect_error_code(&mut conn, code::CHECKSUM);
        // The corrupt frame was fully consumed: the stream is on a frame
        // boundary and keeps working.
        ping_pong(&mut conn);
    });
}

#[test]
fn stale_protocol_version_is_typed_and_the_connection_recovers() {
    on_each_front_end(|addr| {
        let mut conn = connect(addr);
        let mut bytes = frame(&Request::Ping);
        // The version field sits right after the 8-byte magic.
        bytes[8] = 99;
        send_raw(&mut conn, &bytes);
        expect_error_code(&mut conn, code::STALE_PROTOCOL);
        ping_pong(&mut conn);
    });
}

#[test]
fn oversized_payloads_are_reported_then_the_connection_closes() {
    on_each_front_end(|addr| {
        let mut conn = connect(addr);
        let mut bytes = frame(&Request::Ping);
        // The payload length sits after magic (8) + version (4).
        bytes[12..20].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        send_raw(&mut conn, &bytes);
        expect_error_code(&mut conn, code::OVERSIZED);
        // The stream position inside the declared frame is unknowable, so the
        // server hangs up rather than misparse what follows.
        assert_eq!(read_frame(&mut conn).expect("clean close"), None);
        // ... and the server itself is fine: a fresh connection works.
        ping_pong(&mut connect(addr));
    });
}

#[test]
fn truncated_frames_close_cleanly_and_the_server_survives() {
    on_each_front_end(|addr| {
        {
            let mut conn = connect(addr);
            let bytes = frame(&Request::Ping);
            // Send only half the frame, then hang up mid-frame.
            send_raw(&mut conn, &bytes[..bytes.len() / 2]);
        }
        // The half-fed connection is gone; the listener keeps serving.
        ping_pong(&mut connect(addr));
    });
}

#[test]
fn malformed_requests_are_typed_and_the_connection_recovers() {
    on_each_front_end(|addr| {
        let mut conn = connect(addr);
        // A frame whose payload is a garbage request (unknown tag 0xEE).
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &[0xEE, 1, 2, 3]).unwrap();
        send_raw(&mut conn, &bytes);
        expect_error_code(&mut conn, code::PROTOCOL);
        ping_pong(&mut conn);
    });
}

#[test]
fn requests_before_hello_are_protocol_errors() {
    let addr = start_server();
    let mut conn = connect(addr);
    send_raw(&mut conn, &frame(&Request::NextReport));
    expect_error_code(&mut conn, code::PROTOCOL);
    // Hello still works afterwards — the error was per-request.
    send_raw(
        &mut conn,
        &frame(&Request::Hello {
            options: WireSessionOptions::defaults(),
        }),
    );
    assert_eq!(expect_response(&mut conn), Response::HelloAck);
    // A second Hello on the same connection is rejected.
    send_raw(
        &mut conn,
        &frame(&Request::Hello {
            options: WireSessionOptions::defaults(),
        }),
    );
    expect_error_code(&mut conn, code::PROTOCOL);
}
