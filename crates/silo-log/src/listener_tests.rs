//! Durable listeners: told when the durable epoch advances, when a logger
//! fails for good and when the logger shuts down — and never once their
//! `Arc` is gone. Epochs move only when a test says so.

use super::*;
use crate::testkit::scratch_dir;
use silo_core::{SiloConfig, TableId};
use std::time::Instant;

/// Counts its calls and remembers the last durable epoch it was told. The
/// count is shared, so a test can watch a probe it no longer holds.
#[derive(Default)]
struct Probe {
    calls: Arc<AtomicU64>,
    last: AtomicU64,
}

impl AdvanceListener for Probe {
    fn epoch_advanced(&self, epoch: u64) {
        self.last.store(epoch, Ordering::SeqCst);
        self.calls.fetch_add(1, Ordering::SeqCst);
    }
}

/// A logged database (one logger) with no epoch advancer, and a probe
/// registered as a durable listener.
fn listened_db(config: LogConfig) -> (Arc<Database>, Arc<SiloLogger>, TableId, Arc<Probe>) {
    let db = Database::open(SiloConfig::for_testing());
    let logger = SiloLogger::install(config, &db).expect("install logger");
    let t = db.create_table("t").unwrap();
    let probe = Arc::new(Probe::default());
    let listener: Arc<dyn AdvanceListener> = Arc::clone(&probe) as _;
    logger.add_durable_listener(Arc::downgrade(&listener));
    (db, logger, t, probe)
}

/// Commits one write, leaves its epoch and closes it: the logger's next
/// round may declare the write durable (or fail trying).
fn commit_and_close_epoch(db: &Arc<Database>, t: TableId) -> Tid {
    let mut w = db.register_worker();
    let mut txn = w.begin();
    txn.write(t, b"k", b"v").unwrap();
    let tid = txn.commit().unwrap();
    w.quiesce();
    db.epochs().advance_n(1);
    tid
}

fn await_calls(probe: &Probe, at_least: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while probe.calls.load(Ordering::SeqCst) < at_least {
        assert!(Instant::now() < deadline, "the listener was never called");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_listener_hears_the_durable_epoch_advance_and_a_dropped_one_does_not() {
    let dir = scratch_dir("listener");
    let (db, logger, t, probe) = listened_db(LogConfig::to_directory(&*dir, 1));
    let dropped_calls = Arc::new(AtomicU64::new(0));
    let dropped: Arc<dyn AdvanceListener> = Arc::new(Probe {
        calls: Arc::clone(&dropped_calls),
        ..Probe::default()
    });
    logger.add_durable_listener(Arc::downgrade(&dropped));
    drop(dropped);

    let tid = commit_and_close_epoch(&db, t);
    let deadline = Instant::now() + Duration::from_secs(10);
    while probe.last.load(Ordering::SeqCst) < tid.epoch() {
        assert!(
            Instant::now() < deadline,
            "the listener never heard epoch {}",
            tid.epoch()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(logger.durable_epoch() >= tid.epoch());
    logger.shutdown();
    assert_eq!(
        dropped_calls.load(Ordering::SeqCst),
        0,
        "a dropped listener was called"
    );
}

#[test]
fn a_listener_hears_a_permanent_logger_failure() {
    let plan = Arc::new(FaultPlan::new().fail_at(FaultSite::Append, 1, FaultKind::Permanent));
    let dir = scratch_dir("listener-failure");
    let (db, logger, t, probe) = listened_db(LogConfig {
        fault: Some(plan),
        ..LogConfig::to_directory(&*dir, 1)
    });
    commit_and_close_epoch(&db, t);
    await_calls(&probe, 1);
    // The first append failed, so nothing ever became durable: the call was
    // the failure, not an advance.
    assert_eq!(logger.stats().logger_failures, 1);
    assert_eq!(logger.durable_epoch(), 0);
    logger.shutdown();
}

#[test]
fn a_listener_hears_shutdown() {
    let dir = scratch_dir("listener-shutdown");
    let (_db, logger, _t, probe) = listened_db(LogConfig::to_directory(&*dir, 1));
    // No commit and no advance: nothing has woken a durable waiter yet.
    assert_eq!(probe.calls.load(Ordering::SeqCst), 0);
    logger.shutdown();
    assert!(
        probe.calls.load(Ordering::SeqCst) >= 1,
        "shutdown did not tell the listener"
    );
}
