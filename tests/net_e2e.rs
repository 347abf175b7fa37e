//! End-to-end tests for the network front-end's durability contract:
//!
//! * A pipelined client's *acknowledged* writes survive crash recovery —
//!   an ack is only sent once the write's epoch has passed the durable
//!   watermark, so replaying the on-disk log into a fresh database must
//!   reproduce every acked key.
//! * When the durability pipeline degrades (injected sync stalls freeze the
//!   durable epoch), writes are shed with a typed `DurabilityDegraded`
//!   error at the client — never falsely acked — and the surviving history
//!   stays serializable under the silo-check graph checker.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use silo::client::Session;
use silo::log::{recover_directory, RecoveryOptions};
use silo::net::{Server, ServerConfig};
use silo::{
    check_serializability, ClientError, Connection, Database, DurabilityHealth, EpochConfig,
    ErrorCode, FaultKind, FaultPlan, FaultSite, HistoryRecorder, LogConfig, Request, Response,
    SiloConfig, SiloLogger,
};

fn fast_epoch_config() -> SiloConfig {
    SiloConfig::default()
        .with_epoch(EpochConfig {
            epoch_interval: Duration::from_millis(1),
            ..EpochConfig::default()
        })
        .with_spawn_epoch_advancer(true)
}

/// Polls `db.durability_health()` until `want` matches, or panics.
fn wait_for_health(
    db: &Arc<Database>,
    timeout: Duration,
    want: impl Fn(&DurabilityHealth) -> bool,
    what: &str,
) -> DurabilityHealth {
    let deadline = Instant::now() + timeout;
    loop {
        let health = db.durability_health();
        if want(&health) {
            return health;
        }
        assert!(
            Instant::now() < deadline,
            "durability never became {what}; last observed {health:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

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

#[test]
fn pipelined_acked_writes_survive_recovery() {
    let dir = std::env::temp_dir().join(format!("silo-net-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let db = Database::open(fast_epoch_config());
    let logger = SiloLogger::install(LogConfig::to_directory(&dir, 2), &db).expect("install");
    let mut server = Server::start(
        Arc::clone(&db),
        Some(Arc::clone(&logger)),
        ServerConfig::default().with_workers(2),
    )
    .expect("start server");
    let addr = server.local_addr();

    // Two pipelined client threads, each writing its own key range in
    // batches of 32 in-flight Puts. Only writes the server *acked* go into
    // the must-survive set.
    const BATCH: usize = 32;
    const BATCHES: usize = 5;
    let handles: Vec<_> = (0..2)
        .map(|c| {
            std::thread::spawn(move || {
                let mut conn = Connection::connect(addr).expect("connect");
                let table = match conn
                    .call(&Request::OpenTable {
                        name: "kv".to_string(),
                    })
                    .expect("open table")
                {
                    Response::TableId { id } => id,
                    other => panic!("unexpected OpenTable response: {other:?}"),
                };
                let mut acked = Vec::new();
                for b in 0..BATCHES {
                    let keys: Vec<String> = (0..BATCH)
                        .map(|i| format!("c{c}-b{b:02}-k{i:02}"))
                        .collect();
                    for key in &keys {
                        conn.send(&Request::Put {
                            table,
                            key: key.clone().into_bytes(),
                            value: format!("v-{key}").into_bytes(),
                        })
                        .expect("send");
                    }
                    conn.flush().expect("flush");
                    for key in &keys {
                        match conn.recv().expect("recv") {
                            Response::Ok => acked.push(key.clone()),
                            Response::Error { code, detail } => {
                                panic!("unexpected put error on a healthy server: {code} {detail}")
                            }
                            other => panic!("unexpected put response: {other:?}"),
                        }
                    }
                }
                acked
            })
        })
        .collect();
    let acked: Vec<String> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    assert_eq!(acked.len(), 2 * BATCH * BATCHES);

    // "Crash": tear everything down and replay the on-disk log into a fresh
    // database. The acks above were only sent after their epochs became
    // durable, so nothing acked may be missing — regardless of what else the
    // shutdown may or may not have flushed.
    server.shutdown();
    logger.shutdown();
    db.stop_epoch_advancer();
    drop(logger);
    drop(db);

    let db2 = Database::open(SiloConfig::for_testing());
    let t2 = db2.create_table("kv").expect("recreate schema");
    let report =
        recover_directory(&db2, &dir, &RecoveryOptions::default()).expect("recover directory");
    assert!(report.durable_epoch > 0, "recovery found a durable horizon");

    let mut session = db2.session();
    for key in &acked {
        let got = session.get(t2, key.as_bytes()).expect("read recovered key");
        assert_eq!(
            got.as_deref(),
            Some(format!("v-{key}").as_bytes()),
            "acked write {key} missing or wrong after recovery"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_put_is_acked_within_one_epoch_and_a_get_logs_nothing() {
    // A closed loop at depth 1 sends each `PUT` just after an epoch boundary
    // released the previous ack, so its own ack waits for exactly one more
    // boundary and one sync — not two.
    const EPOCH: Duration = Duration::from_millis(100);
    let db = Database::open(
        SiloConfig::default()
            .with_epoch(EpochConfig {
                epoch_interval: EPOCH,
                ..EpochConfig::default()
            })
            .with_spawn_epoch_advancer(true),
    );
    let dir = log_dir("net-e2e-ack");
    let logger = SiloLogger::install(LogConfig::to_directory(&dir.0, 1), &db).expect("install");
    let mut server = Server::start(
        Arc::clone(&db),
        Some(Arc::clone(&logger)),
        ServerConfig::default().with_workers(1),
    )
    .expect("start server");
    let mut session = Session::connect(server.local_addr()).expect("connect");
    let table = session.open_table("kv").expect("open table");
    session.put(table, b"warm-up", b"v").expect("put");

    let mut acks: Vec<Duration> = (0..10u8)
        .map(|i| {
            let sent = Instant::now();
            session.put(table, &[i], b"v").expect("put");
            sent.elapsed()
        })
        .collect();
    acks.sort();
    let median = acks[acks.len() / 2];
    assert!(
        median < EPOCH.mul_f64(1.8),
        "median PUT ack {median:?} on a {EPOCH:?} epoch; all ten: {acks:?}"
    );

    // Every `PUT` above is acked, so its record is published; `GET`s are
    // read-only commits and give the logger nothing more.
    let published = logger.stats().bytes_published;
    for i in 0..10u8 {
        assert!(session.get(table, &[i]).expect("get").is_some());
    }
    assert_eq!(logger.stats().bytes_published, published);

    drop(session);
    server.shutdown();
    logger.shutdown();
    db.stop_epoch_advancer();
}

#[test]
fn degraded_durability_sheds_typed_errors_not_acks() {
    let db = Database::open(fast_epoch_config());
    let recorder = HistoryRecorder::new();
    db.set_history_recorder(Arc::clone(&recorder))
        .expect("install recorder");
    let table = db.create_table("kv").expect("create table");

    // Back-to-back 400 ms sync stalls: the logger keeps succeeding but the
    // durable epoch falls far behind the 1 ms global epoch, crossing the
    // 8-epoch watermark — Degraded, then recovery once the stalls run out.
    let plan = Arc::new(
        FaultPlan::new()
            .fail_at(FaultSite::Sync, 1, FaultKind::SyncStall { millis: 400 })
            .fail_at(FaultSite::Sync, 2, FaultKind::SyncStall { millis: 400 })
            .fail_at(FaultSite::Sync, 3, FaultKind::SyncStall { millis: 400 })
            .fail_at(FaultSite::Sync, 4, FaultKind::SyncStall { millis: 400 }),
    );
    let dir = log_dir("net-e2e-degraded");
    let logger = SiloLogger::install(
        LogConfig::to_directory(&dir.0, 1)
            .with_fault(Arc::clone(&plan))
            .with_max_durable_lag_epochs(8),
        &db,
    )
    .expect("install logger");
    let mut server = Server::start(
        Arc::clone(&db),
        Some(Arc::clone(&logger)),
        ServerConfig::default().with_workers(2),
    )
    .expect("start server");
    let addr = server.local_addr();

    wait_for_health(
        &db,
        Duration::from_secs(10),
        |h| matches!(h, DurabilityHealth::Degraded { .. }),
        "Degraded",
    );

    // Two client threads write through the degraded window. Every put either
    // comes back acked (and is recorded as must-survive) or is shed with the
    // typed `DurabilityDegraded` error — anything else fails the test.
    let shed_seen = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..2)
        .map(|c| {
            let shed_seen = Arc::clone(&shed_seen);
            std::thread::spawn(move || {
                let mut session = Session::connect(addr).expect("connect");
                let table = session.open_table("kv").expect("open table");
                let mut acked = Vec::new();
                let mut i = 0u32;
                // Keep writing until well past the stall window: the early
                // puts land in the degraded window and are shed; once the
                // scheduled stalls run out the durable epoch catches up and
                // puts start acking again.
                let deadline = Instant::now() + Duration::from_secs(30);
                while acked.len() < 100 {
                    assert!(
                        Instant::now() < deadline,
                        "writes never resumed after the stall window \
                         ({} acked so far)",
                        acked.len()
                    );
                    let key = format!("c{c}-k{i:04}");
                    i += 1;
                    match session.put(table, key.as_bytes(), b"degraded-window") {
                        Ok(()) => acked.push(key),
                        Err(ClientError::Server(err)) => {
                            assert_eq!(
                                err.code,
                                ErrorCode::DurabilityDegraded,
                                "only typed degradation sheds are acceptable: {err}"
                            );
                            shed_seen.fetch_add(1, Ordering::Relaxed);
                            // Back off a little: the window is long (the
                            // stalls sum to 1.6 s) and hammering sheds adds
                            // nothing.
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(other) => panic!("unexpected client error: {other}"),
                    }
                }
                acked
            })
        })
        .collect();
    let acked: Vec<String> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();

    assert!(
        shed_seen.load(Ordering::Relaxed) > 0,
        "the degraded window must shed at least one write with a typed error"
    );
    assert!(
        server.stats().writes_shed_degraded > 0,
        "server-side shed counter must agree"
    );

    // The stalls are finite: durability must return to Healthy (degradation
    // is not sticky) and the durable epoch must cover every ack ever sent.
    assert!(plan.injected() >= 1, "at least one stall fired");
    wait_for_health(
        &db,
        Duration::from_secs(30),
        |h| matches!(h, DurabilityHealth::Healthy),
        "Healthy again",
    );
    assert_eq!(logger.stats().logger_failures, 0, "stalls are not failures");

    // No lost acks: every acked key is present.
    let mut check_session = Session::connect(addr).expect("connect for verify");
    for key in &acked {
        let got = check_session
            .get(table, key.as_bytes())
            .expect("read acked key");
        assert_eq!(
            got.as_deref(),
            Some(&b"degraded-window"[..]),
            "acked write {key} lost"
        );
    }

    // Shutdown drops the server's workers, which flushes their buffered
    // histories into the recorder; the surviving history — including
    // everything committed while degraded — must be serializable.
    server.shutdown();
    let sessions = recorder.take_sessions();
    let committed: usize = sessions
        .iter()
        .flat_map(|s| s.txns())
        .filter(|t| t.committed())
        .count();
    assert!(
        committed >= acked.len(),
        "history must cover the acked writes ({committed} committed txns, {} acks)",
        acked.len()
    );
    let report = check_serializability(&sessions)
        .unwrap_or_else(|v| panic!("surviving history is not serializable: {v}"));
    assert!(report.txns > 0);

    logger.shutdown();
    db.stop_epoch_advancer();
}
