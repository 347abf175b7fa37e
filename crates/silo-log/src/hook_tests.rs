//! What the live commit hook logs: a fixed single-worker sequence driven
//! through `SiloLogger`, decoded back and compared transaction by
//! transaction. Phase 1 orders a write-set by record address, which differs
//! from run to run, so each transaction's writes are compared sorted by
//! `(table, key)` rather than as raw log bytes.

use super::*;
use crate::record::{Block, LoggedTxn, LoggedWrite};
use crate::tests::decode_all;
use silo_core::{EpochConfig, SiloConfig, TableId};

fn write(table: TableId, key: &[u8], value: Option<&[u8]>) -> LoggedWrite {
    LoggedWrite {
        table,
        key: key.to_vec(),
        value: value.map(<[u8]>::to_vec),
    }
}

/// Runs the sequence under `mode` and returns what the log holds next to
/// what it should hold.
fn logged(mode: LogMode) -> (Vec<LoggedTxn>, Vec<LoggedTxn>) {
    let db = Database::open(SiloConfig::for_testing().with_epoch(EpochConfig {
        epoch_interval: Duration::from_secs(10),
        snapshot_interval_epochs: 5,
    }));
    let logger =
        SiloLogger::install(LogConfig::in_memory(1).with_mode(mode), &db).expect("install logger");
    let t = db.create_table("t").unwrap();
    let u = db.create_table("u").unwrap();
    let mut w = db.register_worker();
    let mut expected = Vec::new();
    let mut commit = |writes: Vec<LoggedWrite>, body: &dyn Fn(&mut silo_core::Txn<'_>)| {
        let mut txn = w.begin();
        body(&mut txn);
        let tid = txn.commit().unwrap();
        expected.push(LoggedTxn { tid, writes });
    };

    commit(vec![write(t, b"k", Some(b"v1"))], &|txn| {
        txn.insert(t, b"k", b"v1").unwrap()
    });
    commit(vec![write(t, b"k", Some(b"v2"))], &|txn| {
        assert!(txn.update(t, b"k", b"v2").unwrap())
    });
    commit(vec![write(t, b"k", None)], &|txn| {
        assert!(txn.delete(t, b"k").unwrap())
    });
    commit(vec![write(t, b"gone", None)], &|txn| {
        txn.insert(t, b"gone", b"x").unwrap();
        assert!(txn.delete(t, b"gone").unwrap());
    });
    commit(
        vec![
            write(t, b"a", Some(b"1")),
            write(t, b"b", Some(b"2")),
            write(u, b"a", Some(b"3")),
        ],
        &|txn| {
            txn.write(u, b"a", b"3").unwrap();
            txn.write(t, b"b", b"2").unwrap();
            txn.write(t, b"a", b"1").unwrap();
        },
    );
    let last = expected.last().map(|txn: &LoggedTxn| txn.tid).unwrap();
    w.quiesce();
    db.epochs().advance_n(1);
    assert!(logger
        .wait_for_durable(last.epoch(), Duration::from_secs(10))
        .is_durable());
    logger.shutdown();

    let actual = decode_all(&logger.memory_logs()[0])
        .expect("decodable log")
        .into_iter()
        .filter_map(|block| match block {
            Block::Txn(mut txn) => {
                txn.writes
                    .sort_by(|x, y| (x.table, &x.key).cmp(&(y.table, &y.key)));
                Some(txn)
            }
            Block::EpochMarker(_) => None,
        })
        .collect();
    if mode == LogMode::SmallRecords {
        for txn in &mut expected {
            txn.writes.clear();
        }
    }
    (actual, expected)
}

#[test]
fn the_hook_logs_every_write_of_every_writing_commit() {
    let (actual, expected) = logged(LogMode::FullRecords);
    assert_eq!(actual, expected);
}

#[test]
fn small_records_log_only_the_tids() {
    let (actual, expected) = logged(LogMode::SmallRecords);
    assert_eq!(actual, expected);
}
