//! Network chaos harness: a seeded fleet of resilient sessions drives
//! tokenized writes through fault-injected connections — wire faults on
//! *both* sides (resets, torn frames, stalls, slow-loris dribbles, corrupted
//! headers) layered on top of injected durability stalls that push the
//! server through a degraded window — then the server is killed mid-traffic
//! and the log recovered into a fresh database.
//!
//! Invariants, per seed:
//!
//! * **No panic on either side.** A client-thread panic fails the run; the
//!   harness prints a one-line replay command naming the seed.
//! * **Exactly-once acked writes.** Every key the fleet saw acked must be
//!   present (with the right value) after recovery. Keys are unique per
//!   session, so a duplicate-key abort on a live server can only mean a
//!   token replay was re-executed instead of absorbed — an instant failure.
//! * **Nothing invented.** Every recovered key must be one the fleet
//!   actually attempted, with the value it wrote.
//! * **The surviving history is serializable** under the silo-check graph
//!   checker.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use silo::check_serializability;
use silo::client::Session;
use silo::log::{recover_directory, RecoveryOptions};
use silo::net::{Server, ServerConfig};
use silo::{
    ClientConfig, ClientError, Database, EpochConfig, ErrorCode, FaultKind, FaultPlan, FaultSite,
    HistoryRecorder, LogConfig, NetFaultPlan, SiloConfig, SiloLogger,
};

const INSERTS_PER_SESSION: usize = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// The server acked the insert: it must survive recovery.
    Acked,
    /// The attempt errored out (shed, retries exhausted, server killed):
    /// the write may or may not have committed.
    Uncertain,
}

fn fast_epoch_config() -> SiloConfig {
    SiloConfig::default()
        .with_epoch(EpochConfig {
            epoch_interval: Duration::from_millis(1),
            ..EpochConfig::default()
        })
        .with_spawn_epoch_advancer(true)
}

/// One full chaos run: fleet → faults → degraded window → kill → recovery.
fn run_scenario(seed: u64, sessions: usize) {
    let dir = std::env::temp_dir().join(format!(
        "silo-net-chaos-{}-{seed:x}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let db = Database::open(fast_epoch_config());
    let recorder = HistoryRecorder::new();
    db.set_history_recorder(Arc::clone(&recorder)).expect("install recorder");
    // Durability faults from the log layer: back-to-back sync stalls drive
    // the durable epoch past the lag watermark, so part of the run happens
    // inside a degraded window with writes being shed.
    let log_plan = Arc::new(
        FaultPlan::new()
            .fail_at(FaultSite::Sync, 2, FaultKind::SyncStall { millis: 300 })
            .fail_at(FaultSite::Sync, 3, FaultKind::SyncStall { millis: 300 })
            .fail_at(FaultSite::Sync, 4, FaultKind::SyncStall { millis: 300 }),
    );
    let logger = SiloLogger::install(
        LogConfig::to_directory(&dir, 2)
            .with_fault(Arc::clone(&log_plan))
            .with_max_durable_lag_epochs(8),
        &db,
    )
    .expect("install logger");

    let server_plan = Arc::new(NetFaultPlan::from_seed(seed));
    let mut server = Server::start(
        Arc::clone(&db),
        Some(Arc::clone(&logger)),
        ServerConfig::default()
            .with_workers(2)
            .with_read_timeout(Duration::from_secs(2))
            .with_idle_timeout(Duration::from_secs(30))
            .with_fault(Arc::clone(&server_plan)),
    )
    .expect("start server");
    let addr = server.local_addr();

    // The fleet: each session gets its own seeded wire-fault plan and drives
    // unique-key tokenized inserts through the full retry/reconnect/replay
    // stack. A shared progress counter lets the main thread kill the server
    // roughly halfway through the fleet's traffic.
    let progress = Arc::new(AtomicUsize::new(0));
    let total_ops = sessions * INSERTS_PER_SESSION;
    let handles: Vec<_> = (0..sessions)
        .map(|c| {
            let progress = Arc::clone(&progress);
            let client_plan = Arc::new(NetFaultPlan::from_seed(
                seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ));
            std::thread::spawn(move || {
                let config = ClientConfig::default()
                    .with_retries(6)
                    .with_read_timeout(Duration::from_secs(5))
                    .with_fault(client_plan);
                // The eager dial itself runs under injected faults: allow a
                // few fresh attempts before giving the session up.
                let mut session = None;
                for _ in 0..5 {
                    match Session::connect_with(addr, config.clone()) {
                        Ok(s) => {
                            session = Some(s);
                            break;
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
                let mut outcomes: Vec<(String, Outcome)> = Vec::new();
                let Some(mut session) = session else {
                    // Never got through (e.g. the server died first): every
                    // key is untried, which the verifier treats as absent.
                    return outcomes;
                };
                let Ok(table) = session.open_table("chaos") else {
                    return outcomes;
                };
                for i in 0..INSERTS_PER_SESSION {
                    let key = format!("s{c}-k{i:03}");
                    let value = format!("{seed:#x}-{key}");
                    let outcome = match session.insert(table, key.as_bytes(), value.as_bytes()) {
                        Ok(()) => Outcome::Acked,
                        Err(ClientError::Server(err)) if err.code == ErrorCode::Aborted => {
                            // Keys are unique and sessions never contend:
                            // the only way an insert can abort is a token
                            // replay that re-executed instead of returning
                            // the stored ack.
                            panic!(
                                "unique-key insert {key} aborted ({err}): \
                                 token replay was applied twice"
                            );
                        }
                        Err(_) => Outcome::Uncertain,
                    };
                    outcomes.push((key, outcome));
                    progress.fetch_add(1, Ordering::Relaxed);
                }
                outcomes
            })
        })
        .collect();

    // Kill the server once the fleet is about halfway through and the
    // server's schedule has fired — while connections are live, tokens are
    // in flight, and (early in the run) the durability stalls may still be
    // burning. A schedule whose fault sits past the halfway point holds the
    // kill back until it fires, or until every insert has finished.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let done = progress.load(Ordering::Relaxed);
        if done >= total_ops || (done >= total_ops / 2 && server_plan.injected() >= 1) {
            break;
        }
        assert!(Instant::now() < deadline, "fleet stalled before the kill point");
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();

    let mut outcomes: HashMap<String, (Outcome, String)> = HashMap::new();
    for handle in handles {
        // A panicking client thread is a failed run (the harness prints the
        // replay command).
        for (key, outcome) in handle.join().expect("client thread panicked") {
            let value = format!("{seed:#x}-{key}");
            outcomes.insert(key, (outcome, value));
        }
    }
    let acked = outcomes.values().filter(|(o, _)| *o == Outcome::Acked).count();

    // The surviving server-side history must be serializable, and must
    // cover at least every acked write.
    let histories = recorder.take_sessions();
    let committed: usize =
        histories.iter().flat_map(|s| s.txns()).filter(|t| t.committed()).count();
    assert!(
        committed >= acked,
        "history covers {committed} committed txns but the fleet saw {acked} acks"
    );
    check_serializability(&histories)
        .unwrap_or_else(|v| panic!("surviving history is not serializable: {v}"));

    logger.shutdown();
    db.stop_epoch_advancer();
    drop(logger);
    drop(db);

    // Recovery: replay the log into a fresh database. Acked writes must all
    // be there; nothing may appear that the fleet did not write.
    let db2 = Database::open(SiloConfig::for_testing());
    let table2 = db2.create_table("chaos").expect("recreate schema");
    recover_directory(&db2, &dir, &RecoveryOptions::default()).expect("recover directory");
    let mut check = db2.session();
    for (key, (outcome, value)) in &outcomes {
        let got = check.get(table2, key.as_bytes()).expect("read recovered key");
        match outcome {
            Outcome::Acked => assert_eq!(
                got.as_deref(),
                Some(value.as_bytes()),
                "acked write {key} missing or wrong after recovery"
            ),
            Outcome::Uncertain => {
                // May or may not have committed — but if present, it must
                // hold the value this fleet wrote.
                if let Some(got) = got {
                    assert_eq!(got, value.clone().into_bytes(), "corrupted uncertain key {key}");
                }
            }
        }
    }
    let recovered = check.scan(table2, b"", None, None).expect("scan recovered table");
    for (key, value) in recovered {
        let key = String::from_utf8(key).expect("fleet keys are utf-8");
        let (_, expected) = outcomes
            .get(&key)
            .unwrap_or_else(|| panic!("recovery invented key {key}"));
        assert_eq!(value, expected.clone().into_bytes(), "recovered {key} holds a foreign value");
    }

    eprintln!(
        "chaos seed {seed:#x}: {sessions} sessions, {acked}/{} acked, \
         server faults {}, log stalls {}",
        outcomes.len(),
        server_plan.injected(),
        log_plan.injected(),
    );
    // A seed whose schedule never fires tests nothing.
    assert!(server_plan.injected() >= 1, "seed {seed:#x}: no server wire fault fired");
    assert!(log_plan.injected() >= 1, "seed {seed:#x}: no log fault fired");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A seed as `SILO_NET_FAULT_SEED` gives it: decimal, or hex after `0x`.
fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

#[test]
fn seed_parses_as_decimal_or_hex() {
    assert_eq!(parse_seed("12648430"), Some(0xC0FFEE));
    assert_eq!(parse_seed("0xC0FFEE"), Some(12648430));
    assert_eq!(parse_seed("0xc0ffee"), Some(12648430));
    assert_eq!(parse_seed("C0FFEE"), None);
    assert_eq!(parse_seed("0x"), None);
}

#[test]
fn seeded_fleet_survives_wire_faults_durability_stalls_and_a_kill() {
    let seeds: Vec<u64> = match std::env::var("SILO_NET_FAULT_SEED") {
        Ok(s) => vec![parse_seed(&s).expect("SILO_NET_FAULT_SEED must be a u64, decimal or 0x-hex")],
        Err(_) => vec![0xC0FFEE, 7, 42],
    };
    let sessions: usize = std::env::var("SILO_NET_CHAOS_SESSIONS")
        .ok()
        .map(|s| s.parse().expect("SILO_NET_CHAOS_SESSIONS must be a usize"))
        .unwrap_or(2);
    for seed in seeds {
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| run_scenario(seed, sessions))) {
            eprintln!(
                "chaos run failed; replay with:\n  SILO_NET_FAULT_SEED={seed:#x} \
                 SILO_NET_CHAOS_SESSIONS={sessions} cargo test --test net_chaos"
            );
            resume_unwind(panic);
        }
    }
}
