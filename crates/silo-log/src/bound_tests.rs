//! The durable bound and the wake paths of `logger_loop`, driven epoch by
//! epoch: no advancer thread runs, the tests move `E` with `advance_n`.

use super::*;
use crate::record::Block;
use crate::testkit::{decode_all, log_stream, scratch_dir, ScratchDir};
use silo_core::{EpochConfig, SiloConfig, TableId, Worker};
use std::time::Instant;

/// A logged database (one logger, logging to a scratch directory) whose
/// epochs only move when the test says so. `epoch_interval` is what an
/// epoch-paced clock would tick at.
fn manual_db(epoch_interval: Duration) -> (ScratchDir, Arc<Database>, Arc<SiloLogger>, TableId) {
    let dir = scratch_dir("bound");
    let db = Database::open(SiloConfig::for_testing().with_epoch(EpochConfig {
        epoch_interval,
        snapshot_interval_epochs: 5,
    }));
    let logger =
        SiloLogger::install(LogConfig::to_directory(&*dir, 1), &db).expect("install logger");
    let t = db.create_table("t").unwrap();
    (dir, db, logger, t)
}

fn put(w: &mut Worker, t: TableId, key: &[u8]) -> Tid {
    put_value(w, t, key, b"value")
}

fn put_value(w: &mut Worker, t: TableId, key: &[u8], value: &[u8]) -> Tid {
    let mut txn = w.begin();
    txn.write(t, key, value).unwrap();
    txn.commit().unwrap()
}

/// Commits one write of `buffer_capacity` bytes: it fills the worker's log
/// buffer, so the commit publishes on the watermark and starts a round.
fn put_full(logger: &SiloLogger, w: &mut Worker, t: TableId, key: &[u8]) -> Tid {
    put_value(w, t, key, &vec![b'v'; logger.config().buffer_capacity])
}

/// Blocks until the logger has written a round beyond the `before` count: a
/// publish always produces one, so this is how a test knows that a bound was
/// computed after the state it just set up.
fn await_round(logger: &SiloLogger, before: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while logger.stats().sync_calls <= before {
        assert!(Instant::now() < deadline, "no logger round ran");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The blocks of the single logger's segment files, in sequence order.
fn blocks(logger: &SiloLogger) -> Vec<Block> {
    decode_all(&log_stream(&logger.config().dir, 0)).expect("decodable log")
}

#[test]
fn an_uncommitted_first_transaction_holds_its_epoch_back() {
    let (_dir, db, logger, t) = manual_db(Duration::from_millis(1));
    db.epochs().advance_n(3);
    // Worker A commits and finishes: its second commit publishes, so no
    // buffer of its own is left to bound D. (It creates the keys the others
    // overwrite, so that their transactions cannot invalidate each other's
    // node sets.)
    let rounds = logger.stats().sync_calls;
    let mut a = db.register_worker();
    put(&mut a, t, b"b");
    put_full(&logger, &mut a, t, b"c");
    drop(a);
    await_round(&logger, rounds);
    // Worker B is inside a transaction in epoch `e` and has never committed:
    // a commit that took its epoch snapshot now would land in `e`.
    let mut b = db.register_worker();
    let mut txn = b.begin();
    txn.write(t, b"b", b"value").unwrap();
    let e = db.epochs().global_epoch();

    assert_eq!(db.epochs().advance_n(1), e + 1);
    // Force a round that sees all of this: a third worker publishes.
    let rounds = logger.stats().sync_calls;
    let mut c = db.register_worker();
    put_full(&logger, &mut c, t, b"c");
    drop(c);
    await_round(&logger, rounds);
    assert!(
        logger.durable_epoch() < e,
        "epoch {e} declared durable (D = {}) while a transaction that began in it is open",
        logger.durable_epoch()
    );

    // B commits and leaves its epoch; one boundary later its commit is
    // durable, and on disk ahead of the marker that says so.
    let tid = txn.commit().unwrap();
    b.quiesce();
    db.epochs().advance_n(1);
    assert!(logger
        .wait_for_durable(tid.epoch(), Duration::from_secs(10))
        .is_durable());
    let blocks = blocks(&logger);
    let written = blocks
        .iter()
        .position(|block| matches!(block, Block::Txn(txn) if txn.tid == tid))
        .expect("B's commit is in the log");
    let declared = blocks
        .iter()
        .position(|block| matches!(block, Block::EpochMarker(d) if *d >= tid.epoch()))
        .expect("a marker covers B's commit");
    assert!(
        written < declared,
        "marker at {declared} precedes the write at {written}"
    );
}

#[test]
fn a_quiesced_commit_is_durable_one_advance_later() {
    // An epoch-paced clock would tick every 10 s here: whatever makes these
    // commits durable within the assertion below is the advance itself. Five
    // in a row, so that a fallback wake-up cannot account for it either.
    let (_dir, db, logger, t) = manual_db(Duration::from_secs(10));
    let mut w = db.register_worker();
    for i in 0..5u8 {
        let tid = put(&mut w, t, &[i]);
        w.quiesce();
        db.epochs().advance_n(1);
        let started = Instant::now();
        assert_eq!(
            logger.wait_for_durable(tid.epoch(), Duration::from_secs(1)),
            DurableWait::Durable,
            "commit {i} in epoch {} needed more than one advance",
            tid.epoch()
        );
        assert!(
            started.elapsed() < IDLE_FALLBACK / 4,
            "commit {i} became durable only after {:?}",
            started.elapsed()
        );
    }
    assert_eq!(logger.stats().steal_publishes, 5);
}

#[test]
fn a_pinned_worker_holds_the_durable_epoch_below_its_own() {
    let (_dir, db, logger, t) = manual_db(Duration::from_millis(1));
    db.epochs().advance_n(3);
    let mut pinned = db.register_worker();
    let mut busy = db.register_worker();
    let open = pinned.begin();
    let x = db.epochs().global_epoch();
    assert_eq!(db.epochs().advance_n(3), x + 1, "the pin stops E at x + 1");

    // Whatever the other worker commits and publishes, however many rounds
    // run, D stays below x.
    for i in 0..4u8 {
        let rounds = logger.stats().sync_calls;
        put_full(&logger, &mut busy, t, &[i]);
        busy.quiesce();
        await_round(&logger, rounds);
        assert!(logger.durable_epoch() < x, "D = {}", logger.durable_epoch());
    }

    // The pin moves into x + 1: x is durable, with no advance and no publish.
    open.abort();
    let open = pinned.begin();
    assert!(logger
        .wait_for_durable(x, Duration::from_secs(10))
        .is_durable());
    assert_eq!(logger.durable_epoch(), x);
    // And once it quiesces, nothing holds D below E − 1.
    open.abort();
    pinned.quiesce();
    assert_eq!(db.epochs().advance_n(1), x + 2);
    assert!(logger
        .wait_for_durable(x + 1, Duration::from_secs(10))
        .is_durable());
}

#[test]
fn read_only_commits_are_log_silent() {
    let (_dir, db, logger, t) = manual_db(Duration::from_millis(1));
    let mut w = db.register_worker();
    let tid = put(&mut w, t, b"k");
    let state = &logger.shared.workers[w.id()];
    let before = (
        logger.stats(),
        state.pending_epoch.load(Ordering::Acquire),
        state.buffer.lock().len(),
    );
    for _ in 0..10 {
        let mut txn = w.begin();
        assert_eq!(txn.read(t, b"k").unwrap().as_deref(), Some(&b"value"[..]));
        txn.commit().unwrap();
    }
    let after = (
        logger.stats(),
        state.pending_epoch.load(Ordering::Acquire),
        state.buffer.lock().len(),
    );
    assert_eq!(before, after);

    w.quiesce();
    db.epochs().advance_n(1);
    assert!(logger
        .wait_for_durable(tid.epoch(), Duration::from_secs(10))
        .is_durable());
    logger.shutdown();
    let txns: Vec<_> = blocks(&logger)
        .into_iter()
        .filter_map(|block| match block {
            Block::Txn(txn) => Some(txn),
            Block::EpochMarker(_) => None,
        })
        .collect();
    assert_eq!(txns.len(), 1, "only the write is logged: {txns:?}");
    assert_eq!((txns[0].tid, txns[0].writes.len()), (tid, 1));
}

#[test]
fn a_thousand_checkpoint_attempts_register_no_workers() {
    let ckpt_dir = scratch_dir("ckpt-1000");
    let (_dir, db, logger, t) = manual_db(Duration::from_millis(1));
    let ckpt = Checkpointer::spawn(
        Arc::clone(&db),
        Arc::clone(&logger),
        CheckpointConfig {
            interval: Duration::from_secs(3600),
            ..CheckpointConfig::new(&*ckpt_dir)
        },
    );
    let mut w = db.register_worker();
    for attempt in 0..1000u32 {
        if attempt % 100 == 0 {
            // Move the snapshot epoch so that some attempts do real work.
            put(&mut w, t, &attempt.to_be_bytes());
            w.quiesce();
            db.epochs().advance_n(12);
        }
        ckpt.run_now().unwrap();
    }
    let stats = ckpt.stats();
    assert!(stats.completed >= 5, "{stats:?}");
    assert_eq!(stats.completed + stats.skipped, 1000, "{stats:?}");

    // Each attempt registers its workers and drops them again: only `w` is
    // left, and the slot table grew no further than one attempt's workers.
    assert_eq!(db.epochs().worker_count(), 1);
    assert!(
        db.epochs().high_water() <= 3,
        "{}",
        db.epochs().high_water()
    );
    let mut fresh = db.register_worker();
    assert_eq!(fresh.id(), 1);
    put(&mut fresh, t, b"fresh");
    ckpt.shutdown();
}
