//! Client-against-server integration: the session vocabulary, explicit
//! pipelining, durable acknowledgements riding group commit, and the
//! failure handling (timeouts, retries, reconnection, token replay).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::net::TcpListener;
use std::time::{Duration, Instant};

use silo_client::{
    ClientConfig, ClientError, Connection, ErrorCode, HealthStatus, Session,
    TxnBuilder,
};
use silo_core::{Database, EpochConfig, SiloConfig};
use silo_log::{LogConfig, SiloLogger};
use silo_net::protocol::{Request, Response};
use silo_net::{NetFaultKind, NetFaultPlan, NetFaultSite, Server, ServerConfig};

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

fn start_durable_server() -> (LogDir, Arc<Database>, Arc<SiloLogger>, Server) {
    let config = SiloConfig::default()
        .with_epoch(EpochConfig { epoch_interval: Duration::from_millis(1), ..Default::default() })
        .with_spawn_epoch_advancer(true);
    let db = Database::open(config);
    let dir = log_dir("client-server");
    let logger = SiloLogger::install(LogConfig::to_directory(&dir.0, 2), &db).unwrap();
    let server = Server::start(
        Arc::clone(&db),
        Some(Arc::clone(&logger)),
        ServerConfig::default().with_workers(2),
    )
    .unwrap();
    (dir, db, logger, server)
}

#[test]
fn session_vocabulary_end_to_end() {
    let (_dir, _db, logger, mut server) = start_durable_server();
    let mut session = Session::connect(server.local_addr()).unwrap();
    assert!(session.tokens_negotiated());

    let kv = session.open_table("kv").unwrap();
    session.put(kv, b"alice", b"100").unwrap();
    assert_eq!(session.get(kv, b"alice").unwrap(), Some(b"100".to_vec()));
    assert_eq!(session.get(kv, b"nobody").unwrap(), None);

    session.insert(kv, b"bob", b"200").unwrap();
    let err = session.insert(kv, b"bob", b"201").unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::Aborted));
    assert!(err.is_retryable());

    let reads = session
        .transact(TxnBuilder::new().get(kv, b"alice").put(kv, b"carol", b"300").get(kv, b"carol"))
        .unwrap();
    assert_eq!(reads, vec![Some(b"100".to_vec()), Some(b"300".to_vec())]);

    let entries = session.scan(kv, b"", None, None).unwrap();
    assert_eq!(
        entries.iter().map(|(k, _)| k.as_slice()).collect::<Vec<_>>(),
        vec![&b"alice"[..], b"bob", b"carol"]
    );

    session.delete(kv, b"bob").unwrap();
    assert_eq!(session.get(kv, b"bob").unwrap(), None);

    let health = session.health().unwrap();
    assert_eq!(health.health, HealthStatus::Healthy);

    // Every acked write's epoch is durable: the logger's watermark must have
    // caught up with the last ack by the time the ack arrived.
    drop(session);
    server.shutdown();
    assert!(logger.durable_epoch() >= 1);
    let stats = server.stats();
    assert!(stats.writes_acked >= 4, "acked {}", stats.writes_acked);
    assert_eq!(stats.writes_shed_degraded, 0);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn pipelined_burst_drains_in_order() {
    let (_dir, _db, logger, mut server) = start_durable_server();
    let mut conn = Connection::connect(server.local_addr()).unwrap();

    let table = match conn.call(&Request::OpenTable { name: "burst".to_string() }).unwrap() {
        Response::TableId { id } => id,
        other => panic!("unexpected {other:?}"),
    };

    // Fire a burst of writes without reading a single response...
    const N: usize = 256;
    for i in 0..N {
        conn.send(&Request::Put {
            table,
            key: format!("k{i:04}").into_bytes(),
            value: format!("v{i}").into_bytes(),
        })
        .unwrap();
    }
    assert_eq!(conn.pending(), N);
    // ...then drain them. Every ack is durable, and order matches issue
    // order (acks are indistinguishable here, so check via follow-up gets).
    for _ in 0..N {
        match conn.recv_result().unwrap() {
            Response::Ok => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(conn.pending(), 0);

    // Interleaved reads come back positionally.
    for i in (0..N).step_by(17) {
        conn.send(&Request::Get { table, key: format!("k{i:04}").into_bytes() }).unwrap();
    }
    let mut expected = (0..N).step_by(17);
    while conn.pending() > 0 {
        let i = expected.next().unwrap();
        match conn.recv_result().unwrap() {
            Response::Value { value } => {
                assert_eq!(value, Some(format!("v{i}").into_bytes()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    let sync_calls_per_ack =
        logger.stats().sync_calls as f64 / server.stats().writes_acked.max(1) as f64;
    server.shutdown();
    // The whole point of pipelining over group commit: the burst shares
    // epoch boundaries, so syncs per acked write collapse far below one.
    // (In-memory sinks count a "sync" per durable-bound publish round.)
    assert!(
        sync_calls_per_ack < 0.5,
        "expected amortized group commit, got {sync_calls_per_ack} syncs per acked write"
    );
}

#[test]
fn resilient_session_is_inert_on_a_healthy_server() {
    let (_dir, _db, _logger, mut server) = start_durable_server();
    let config = ClientConfig::default().with_retries(8);
    let mut session = Session::connect_with(server.local_addr(), config).unwrap();
    assert!(session.tokens_negotiated());
    let kv = session.open_table("kv").unwrap();
    session.put(kv, b"k", b"v").unwrap();
    session.insert(kv, b"k2", b"v2").unwrap();
    assert_eq!(session.get(kv, b"k").unwrap(), Some(b"v".to_vec()));
    let stats = session.stats();
    assert_eq!((stats.retries, stats.reconnects), (0, 0));
    drop(session);
    server.shutdown();
    assert_eq!(server.stats().token_replays, 0);
    assert_eq!(server.stats().connections_reset, 0);
}

#[test]
fn deterministic_aborts_burn_the_retry_budget_then_surface() {
    let (_dir, _db, _logger, server) = start_durable_server();
    let config = ClientConfig::default().with_retries(2);
    let mut session = Session::connect_with(server.local_addr(), config).unwrap();
    let kv = session.open_table("kv").unwrap();
    session.insert(kv, b"dup", b"1").unwrap();
    // A duplicate insert aborts deterministically: the policy retries it
    // (an OCC abort is normally transient) until the budget runs out, then
    // surfaces the typed abort.
    let err = session.insert(kv, b"dup", b"2").unwrap_err();
    assert_eq!(err.server_code(), Some(ErrorCode::Aborted));
    assert_eq!(session.stats().retries, 2);
}

#[test]
fn lost_ack_is_replayed_from_the_token_window_exactly_once() {
    let (_dir, _db, _logger, mut server) = start_durable_server();
    // Reads per connection: 1 = HELLO response, 2 = open_table response,
    // 3 = the insert's ack — which this plan replaces with a connection
    // reset, so the client never sees the outcome of an executed write.
    let fault = Arc::new(
        NetFaultPlan::new().fail_at(NetFaultSite::Read, 3, NetFaultKind::Reset),
    );
    let config = ClientConfig::default()
        .with_retries(4)
        .with_fault(Arc::clone(&fault));
    let mut session = Session::connect_with(server.local_addr(), config).unwrap();
    let kv = session.open_table("kv").unwrap();
    // The first attempt executes on the server; its ack dies on the wire.
    // The reconnect replays the same token and must get the *stored* ack —
    // not a duplicate-key abort from re-executing the insert.
    session.insert(kv, b"once", b"v").unwrap();
    assert_eq!(fault.injected(), 1, "the scheduled reset fired");
    assert_eq!(session.stats().reconnects, 1);
    assert_eq!(session.get(kv, b"once").unwrap(), Some(b"v".to_vec()));
    drop(session);
    server.shutdown();
    assert_eq!(server.stats().token_replays, 1);
}

#[test]
fn torn_request_is_resent_fresh_after_reconnecting() {
    let (_dir, _db, _logger, mut server) = start_durable_server();
    // Writes per connection: 1 = HELLO, 2 = open_table, 3 = the insert —
    // torn mid-frame, so the server never sees a complete request.
    let fault = Arc::new(
        NetFaultPlan::new().fail_at(NetFaultSite::Write, 3, NetFaultKind::Torn),
    );
    let config = ClientConfig::default()
        .with_retries(4)
        .with_fault(Arc::clone(&fault));
    let mut session = Session::connect_with(server.local_addr(), config).unwrap();
    let kv = session.open_table("kv").unwrap();
    session.insert(kv, b"torn", b"v").unwrap();
    assert_eq!(fault.injected(), 1);
    assert_eq!(session.stats().reconnects, 1);
    assert_eq!(session.get(kv, b"torn").unwrap(), Some(b"v".to_vec()));
    drop(session);
    server.shutdown();
    // The first attempt never reached the server whole: the resend executed
    // fresh rather than replaying a stored ack.
    assert_eq!(server.stats().token_replays, 0);
}

#[test]
fn reads_ride_through_connection_resets_transparently() {
    let (_dir, _db, _logger, server) = start_durable_server();
    let fault = Arc::new(
        NetFaultPlan::new().fail_at(NetFaultSite::Read, 3, NetFaultKind::Reset),
    );
    let config = ClientConfig::default()
        .with_retries(4)
        .with_fault(Arc::clone(&fault));
    let mut session = Session::connect_with(server.local_addr(), config).unwrap();
    let kv = session.open_table("kv").unwrap();
    // The get's response (read #3) dies; reads are idempotent, so the
    // session just reconnects and re-asks.
    assert_eq!(session.get(kv, b"absent").unwrap(), None);
    assert_eq!(session.stats().reconnects, 1);
    assert_eq!(fault.injected(), 1);
}

#[test]
fn recv_without_send_is_an_error() {
    let (_dir, _db, _logger, server) = start_durable_server();
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    match conn.recv() {
        Err(ClientError::Protocol(_)) => {}
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn a_silent_server_surfaces_as_a_client_timeout() {
    // A listener that never answers (the kernel queues the connection in
    // its backlog, so the dial succeeds): the session's HELLO waits on the socket's
    // read timeout, which must surface typed rather than as a raw I/O error.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let config = ClientConfig::default().with_read_timeout(Duration::from_millis(50));
    let started = Instant::now();
    match Session::connect_with(listener.local_addr().unwrap(), config) {
        Err(ClientError::TimedOut) => {}
        Err(other) => panic!("expected TimedOut, got {other:?}"),
        Ok(_) => panic!("a server that never answers completed the handshake"),
    }
    assert!(started.elapsed() < Duration::from_secs(10), "took {:?}", started.elapsed());
}
