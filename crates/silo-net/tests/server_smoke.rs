//! Server behavior against raw sockets: request execution, torn-stream and
//! oversized-frame handling, deadlines, admission control, the protocol
//! handshake, reply order behind a durable ack, threads per connection, and
//! clean shutdown.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use silo_core::{Database, EpochConfig, SiloConfig};
use silo_log::{LogConfig, SiloLogger};
use silo_net::protocol::{
    decode_response, encode_request, read_frame, write_frame, ErrorCode, Request, Response, TxnOp,
    DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use silo_net::{Server, ServerConfig};

/// A fresh log directory for one test, removed when dropped.
struct LogDir(PathBuf);

impl Drop for LogDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn log_dir(name: &str) -> LogDir {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    LogDir(std::env::temp_dir().join(format!("silo-{name}-{}-{n}", std::process::id())))
}

fn call(stream: &mut TcpStream, req: &Request) -> Response {
    let mut payload = Vec::new();
    encode_request(&mut payload, req);
    write_frame(stream, &payload).unwrap();
    stream.flush().unwrap();
    let mut buf = Vec::new();
    assert!(read_frame(stream, &mut buf, 1 << 24).unwrap(), "server closed unexpectedly");
    decode_response(&buf).unwrap()
}

fn start_server() -> Server {
    let db = Database::open(SiloConfig::for_testing());
    Server::start(db, None, ServerConfig::default().with_workers(2)).unwrap()
}

#[test]
fn basic_requests_roundtrip() {
    let server = start_server();
    let mut c = TcpStream::connect(server.local_addr()).unwrap();

    let table = match call(&mut c, &Request::OpenTable { name: "kv".to_string() }) {
        Response::TableId { id } => id,
        other => panic!("unexpected {other:?}"),
    };
    // OpenTable is idempotent.
    assert_eq!(
        call(&mut c, &Request::OpenTable { name: "kv".to_string() }),
        Response::TableId { id: table }
    );

    assert_eq!(
        call(&mut c, &Request::Put { table, key: b"a".to_vec(), value: b"1".to_vec() }),
        Response::Ok
    );
    assert_eq!(
        call(&mut c, &Request::Get { table, key: b"a".to_vec() }),
        Response::Value { value: Some(b"1".to_vec()) }
    );
    assert_eq!(
        call(&mut c, &Request::Get { table, key: b"missing".to_vec() }),
        Response::Value { value: None }
    );

    // Multi-op transaction: read result order matches op order.
    assert_eq!(
        call(
            &mut c,
            &Request::Txn {
                ops: vec![
                    TxnOp::Get { table, key: b"a".to_vec() },
                    TxnOp::Put { table, key: b"b".to_vec(), value: b"2".to_vec() },
                    TxnOp::Get { table, key: b"b".to_vec() },
                ]
            }
        ),
        Response::TxnOk { reads: vec![Some(b"1".to_vec()), Some(b"2".to_vec())] }
    );

    match call(
        &mut c,
        &Request::Scan { table, start: b"a".to_vec(), end: None, limit: 0 },
    ) {
        Response::Entries { entries } => {
            assert_eq!(
                entries,
                vec![(b"a".to_vec(), b"1".to_vec()), (b"b".to_vec(), b"2".to_vec())]
            );
        }
        other => panic!("unexpected {other:?}"),
    }

    // Duplicate insert is a typed abort, not a hang or a protocol error.
    assert_eq!(
        call(&mut c, &Request::Insert { table, key: b"a".to_vec(), value: b"x".to_vec() }),
        Response::Error {
            code: ErrorCode::Aborted,
            detail: "insert of an existing key".to_string()
        }
    );

    // Unknown table ids are rejected before any transaction begins.
    match call(&mut c, &Request::Get { table: 999, key: b"a".to_vec() }) {
        Response::Error { code: ErrorCode::NoSuchTable, .. } => {}
        other => panic!("unexpected {other:?}"),
    }

    match call(&mut c, &Request::Health) {
        Response::Health { .. } => {}
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn torn_stream_is_dropped_without_harming_the_server() {
    let mut server = start_server();
    // Write half a frame and hang up.
    {
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        c.write_all(&[7, 0, 0, 0, 1, 2]).unwrap(); // announces 7 bytes, sends 2
    }
    // The server keeps serving other connections.
    let mut c = TcpStream::connect(server.local_addr()).unwrap();
    match call(&mut c, &Request::Health) {
        Response::Health { .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    drop(c);
    server.shutdown();
    assert!(server.stats().protocol_errors >= 1);
}

#[test]
fn oversized_frame_gets_typed_error_then_close() {
    let db = Database::open(SiloConfig::for_testing());
    let server = Server::start(db, None, ServerConfig::default()).unwrap();
    let mut c = TcpStream::connect(server.local_addr()).unwrap();
    // A header announcing one byte past the bound, with no payload behind
    // it: the server must reject the length before waiting for the bytes.
    c.write_all(&(DEFAULT_MAX_FRAME_BYTES as u32 + 1).to_le_bytes()).unwrap();
    c.flush().unwrap();
    let mut buf = Vec::new();
    assert!(read_frame(&mut c, &mut buf, 1 << 20).unwrap());
    match decode_response(&buf).unwrap() {
        Response::Error { code: ErrorCode::BadRequest, detail } => {
            assert!(detail.contains("exceeds"), "detail: {detail}");
        }
        other => panic!("unexpected {other:?}"),
    }
    // The server closes the connection after answering: the stream is no
    // longer frame-aligned.
    assert!(!read_frame(&mut c, &mut buf, 1 << 20).unwrap());
}

#[test]
fn bad_payload_gets_error_but_connection_survives() {
    let server = start_server();
    let mut c = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut c, &[0xEE, 1, 2, 3]).unwrap();
    c.flush().unwrap();
    let mut buf = Vec::new();
    assert!(read_frame(&mut c, &mut buf, 1 << 24).unwrap());
    match decode_response(&buf).unwrap() {
        Response::Error { code: ErrorCode::BadRequest, .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    // Framing stayed aligned: the next request still works.
    match call(&mut c, &Request::Health) {
        Response::Health { .. } => {}
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn idle_connections_are_closed_after_the_idle_budget() {
    let db = Database::open(SiloConfig::for_testing());
    let server = Server::start(
        db,
        None,
        ServerConfig::default()
            .with_read_timeout(Duration::from_millis(40))
            .with_idle_timeout(Duration::from_millis(80)),
    )
    .unwrap();
    let mut c = TcpStream::connect(server.local_addr()).unwrap();
    match call(&mut c, &Request::Health) {
        Response::Health { .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    // Go silent: the server hangs up within the idle budget (clean close —
    // the stream is still frame-aligned, so EOF is `Ok(false)`).
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = Vec::new();
    assert!(!read_frame(&mut c, &mut buf, 1 << 20).unwrap());
    assert_eq!(server.stats().idle_closed, 1);
}

#[test]
fn stalled_mid_frame_writer_hits_the_read_deadline() {
    let db = Database::open(SiloConfig::for_testing());
    let server = Server::start(
        db,
        None,
        ServerConfig::default()
            .with_read_timeout(Duration::from_millis(40))
            .with_idle_timeout(Duration::from_secs(60)),
    )
    .unwrap();
    let mut c = TcpStream::connect(server.local_addr()).unwrap();
    // Announce a 16-byte frame, deliver 2 bytes, then stall. An idle
    // connection would be tolerated for the (long) idle budget; a stalled
    // *partial* frame must trip the per-frame deadline instead.
    c.write_all(&16u32.to_le_bytes()).unwrap();
    c.write_all(&[1, 2]).unwrap();
    c.flush().unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = Vec::new();
    assert!(read_frame(&mut c, &mut buf, 1 << 20).unwrap());
    match decode_response(&buf).unwrap() {
        Response::Error { code: ErrorCode::BadRequest, detail } => {
            assert!(detail.contains("deadline"), "detail: {detail}");
        }
        other => panic!("unexpected {other:?}"),
    }
    // The stream is no longer frame-aligned: the server closes it.
    assert!(!read_frame(&mut c, &mut buf, 1 << 20).unwrap());
    assert!(server.stats().read_timeouts >= 1);
}

#[test]
fn admission_bound_rejects_with_typed_server_busy() {
    let db = Database::open(SiloConfig::for_testing());
    let server =
        Server::start(db, None, ServerConfig::default().with_max_connections(1)).unwrap();
    let mut c1 = TcpStream::connect(server.local_addr()).unwrap();
    // A round-trip guarantees c1 is registered before c2 arrives.
    match call(&mut c1, &Request::Health) {
        Response::Health { .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    let mut c2 = TcpStream::connect(server.local_addr()).unwrap();
    c2.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = Vec::new();
    assert!(read_frame(&mut c2, &mut buf, 1 << 20).unwrap());
    match decode_response(&buf).unwrap() {
        Response::Error { code: ErrorCode::ServerBusy, detail } => {
            assert!(detail.contains("connection"), "detail: {detail}");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert!(!read_frame(&mut c2, &mut buf, 1 << 20).unwrap());
    assert_eq!(server.stats().connections_rejected, 1);
    // The admitted connection is unaffected.
    match call(&mut c1, &Request::Health) {
        Response::Health { .. } => {}
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn hello_negotiates_version_and_rejects_unknown_ones() {
    let server = start_server();
    let mut c = TcpStream::connect(server.local_addr()).unwrap();
    match call(&mut c, &Request::Hello { version: PROTOCOL_VERSION, features: u64::MAX, lineage: 7 }) {
        Response::HelloOk { version, features } => {
            assert_eq!(version, PROTOCOL_VERSION);
            // The server only grants features it supports.
            assert_eq!(features & !silo_net::SUPPORTED_FEATURES, 0);
        }
        other => panic!("unexpected {other:?}"),
    }
    match call(&mut c, &Request::Hello { version: PROTOCOL_VERSION + 1, features: 0, lineage: 0 }) {
        Response::Error { code: ErrorCode::UnsupportedVersion, .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    // The connection survives a failed negotiation (the client may retry
    // with a version the server named).
    match call(&mut c, &Request::Health) {
        Response::Health { .. } => {}
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn shutdown_is_clean_and_idempotent() {
    let mut server = start_server();
    let mut c = TcpStream::connect(server.local_addr()).unwrap();
    match call(&mut c, &Request::Health) {
        Response::Health { .. } => {}
        other => panic!("unexpected {other:?}"),
    }
    server.shutdown();
    server.shutdown(); // idempotent
    assert_eq!(server.stats().connections_accepted, 1);
}

/// Open descriptors of this process; `None` where there is no `/proc`.
fn open_fds() -> Option<usize> {
    std::fs::read_dir("/proc/self/fd").ok().map(|dir| dir.count())
}

#[test]
fn closed_connections_release_their_socket() {
    const CHURN: u64 = 300;
    // Other tests of this binary open a handful of sockets concurrently.
    const SLACK: usize = 32;
    let server = start_server();
    let mut c = TcpStream::connect(server.local_addr()).unwrap();
    let table = match call(&mut c, &Request::OpenTable { name: "kv".to_string() }) {
        Response::TableId { id } => id,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(
        call(&mut c, &Request::Put { table, key: b"a".to_vec(), value: b"1".to_vec() }),
        Response::Ok
    );
    drop(c);

    let before = open_fds();
    for _ in 0..CHURN {
        let mut c = TcpStream::connect(server.local_addr()).unwrap();
        assert_eq!(
            call(&mut c, &Request::Get { table, key: b"a".to_vec() }),
            Response::Value { value: Some(b"1".to_vec()) }
        );
    }

    // The owning worker sees each hang-up on its next poll round and only
    // then closes the socket, so give it a moment to settle.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = server.stats();
        let fds = open_fds();
        let released = fds.zip(before).map_or(true, |(now, before)| now <= before + SLACK);
        if released && stats.disconnects == CHURN + 1 {
            assert_eq!(stats.connections_accepted, CHURN + 1);
            assert_eq!(stats.connections_rejected, 0);
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{CHURN} closed connections later: {fds:?} open fds (was {before:?}), {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Threads of this process; `None` where there is no `/proc`.
fn threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|dir| dir.count())
}

#[test]
fn connections_add_no_threads() {
    const CONNS: usize = 64;
    // Other tests of this binary start and stop servers concurrently; a
    // thread per connection would add 64 or more.
    const SLACK: usize = 32;
    let server = start_server();
    let before = threads();
    let mut conns: Vec<TcpStream> =
        (0..CONNS).map(|_| TcpStream::connect(server.local_addr()).unwrap()).collect();
    // A round trip on each: every connection is accepted and being served.
    for c in &mut conns {
        match call(c, &Request::Health) {
            Response::Health { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    let after = threads();
    if let (Some(before), Some(after)) = (before, after) {
        assert!(
            after <= before + SLACK,
            "{CONNS} open connections took the process from {before} to {after} threads"
        );
    }
    assert_eq!(server.stats().connections_accepted, CONNS as u64);
}

#[test]
fn a_get_pipelined_behind_a_durable_put_is_answered_after_its_ack() {
    let db = Database::open(
        SiloConfig::default()
            .with_epoch(EpochConfig {
                epoch_interval: Duration::from_millis(100),
                ..EpochConfig::default()
            })
            .with_spawn_epoch_advancer(true),
    );
    let dir = log_dir("smoke-ack-order");
    let logger = SiloLogger::install(LogConfig::to_directory(&dir.0, 1), &db).unwrap();
    let mut server = Server::start(
        Arc::clone(&db),
        Some(Arc::clone(&logger)),
        ServerConfig::default().with_workers(1),
    )
    .unwrap();
    let mut c = TcpStream::connect(server.local_addr()).unwrap();
    let table = match call(&mut c, &Request::OpenTable { name: "kv".to_string() }) {
        Response::TableId { id } => id,
        other => panic!("unexpected {other:?}"),
    };

    // Both frames in one write: the server reads and executes them in the
    // same round, while the PUT's ack waits up to an epoch for durability.
    let mut burst = Vec::new();
    for req in [
        Request::Put { table, key: b"k".to_vec(), value: b"v".to_vec() },
        Request::Get { table, key: b"j".to_vec() },
    ] {
        let mut payload = Vec::new();
        encode_request(&mut payload, &req);
        write_frame(&mut burst, &payload).unwrap();
    }
    c.write_all(&burst).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = Vec::new();
    assert!(read_frame(&mut c, &mut buf, 1 << 20).unwrap());
    assert_eq!(decode_response(&buf).unwrap(), Response::Ok, "the PUT's ack comes first");
    assert!(read_frame(&mut c, &mut buf, 1 << 20).unwrap());
    assert_eq!(decode_response(&buf).unwrap(), Response::Value { value: None });

    drop(c);
    server.shutdown();
    assert_eq!(server.stats().writes_acked, 1);
    logger.shutdown();
    db.stop_epoch_advancer();
}
