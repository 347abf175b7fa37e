//! Recovery (paper §4.10). This file replays log tails: the durable
//! horizon, torn and corrupt rounds, the largest TID winning a key. The
//! tests of recovery from a checkpoint plus its tail are spliced in from
//! `checkpoint_tests.rs`, so they share this module's helpers and keep their
//! `recovery::tests::` paths.

use super::*;
use crate::record::{begin_sealed, encode_epoch_marker, encode_txn, seal};
use crate::testkit::{
    as_writes, assert_no_absent_record, recovered, scratch_dir, sealed, slice_bytes,
    write_checkpoint, write_segments, ScratchDir,
};
use silo_core::{SiloConfig, Tid};

fn txn_block(tid: Tid, table: TableId, key: &[u8], value: Option<&[u8]>) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_txn(&mut buf, tid, as_writes(&[(table, key, value)]), false);
    buf
}

fn marker(epoch: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_epoch_marker(&mut buf, epoch);
    buf
}

/// One sealed group-commit round holding `blocks`.
fn round(blocks: &[Vec<u8>]) -> Vec<u8> {
    sealed(&blocks.concat())
}

/// Writes `streams` as one segment file per logger and recovers them
/// into a fresh database with one table (id 0).
fn recover(streams: &[Vec<u8>]) -> (Arc<Database>, RecoveryReport) {
    let dir = scratch_dir("recover");
    write_segments(&dir, streams);
    recovered("t", &dir)
}

fn read(db: &Arc<Database>, key: &[u8]) -> Option<Vec<u8>> {
    let mut w = db.register_worker();
    let mut txn = w.begin();
    let value = txn.read(0, key).unwrap();
    txn.commit().unwrap();
    value
}

/// Every live version of table 0 with its TID, via a snapshot walk.
fn versions(db: &Arc<Database>) -> Vec<(Vec<u8>, Tid, Vec<u8>)> {
    let mut w = db.register_worker();
    let mut snap = w.begin_snapshot();
    let mut out = Vec::new();
    snap.scan_versions(0, 64, None, |key, tid, value| {
        out.push((key.to_vec(), tid, value.to_vec()));
    });
    snap.finish();
    out
}

#[test]
fn durable_epoch_is_min_across_streams() {
    let s1 = [round(&[marker(5)]), round(&[marker(9)])].concat();
    let s2 = round(&[marker(7)]);
    assert_eq!(recover(&[s1, s2]).1.durable_epoch, 7);
}

#[test]
fn transactions_after_horizon_are_skipped() {
    // One logger is behind: the recovered prefix respects the *minimum*
    // durable epoch, whatever the faster stream already recorded.
    let fast = round(&[
        txn_block(Tid::new(2, 1), 0, b"a", Some(b"1")),
        txn_block(Tid::new(6, 1), 0, b"b", Some(b"too-new")),
        marker(6),
    ]);
    let slow = round(&[txn_block(Tid::new(3, 1), 0, b"c", Some(b"3")), marker(3)]);
    let (db, report) = recover(&[fast, slow]);
    assert_eq!(report.durable_epoch, 3);
    assert_eq!(report.replayed_txns, 2);
    assert_eq!(report.skipped_txns, 1);
    assert_eq!(read(&db, b"a"), Some(b"1".to_vec()));
    assert_eq!(read(&db, b"c"), Some(b"3".to_vec()));
    assert_eq!(
        read(&db, b"b"),
        None,
        "epoch-6 transaction is beyond the durable horizon and must not be recovered"
    );
}

#[test]
fn same_key_resolves_to_largest_tid_across_streams() {
    // The newest action on `k` is a delete, and it sits in a different
    // stream than the writes it supersedes.
    let s1 = round(&[
        txn_block(Tid::new(2, 7), 0, b"k", Some(b"v2")),
        txn_block(Tid::new(2, 3), 0, b"k", Some(b"v1")),
        txn_block(Tid::new(2, 9), 0, b"j", Some(b"j-new")),
        marker(10),
    ]);
    let s2 = round(&[
        txn_block(Tid::new(3, 1), 0, b"k", None),
        txn_block(Tid::new(2, 5), 0, b"j", Some(b"j-old")),
        marker(10),
    ]);
    let (db, report) = recover(&[s1, s2]);
    assert_eq!(report.replayed_txns, 5);
    assert_eq!(read(&db, b"k"), None, "the delete is the newest action");
    assert_eq!(read(&db, b"j"), Some(b"j-new".to_vec()));
    assert_eq!(db.table(0).approximate_len(), 1);
}

#[test]
fn recovery_keeps_original_tids_and_fast_forwards_the_epoch() {
    let s = round(&[
        txn_block(Tid::new(1, 1), 0, b"alpha", Some(b"1")),
        txn_block(Tid::new(1, 2), 0, b"beta", Some(b"2")),
        txn_block(Tid::new(2, 1), 0, b"alpha", Some(b"updated")),
        txn_block(Tid::new(2, 2), 0, b"gone", Some(b"x")),
        txn_block(Tid::new(2, 3), 0, b"gone", None),
        marker(4),
    ]);
    let (db, report) = recover(&[s]);
    assert_eq!(report.durable_epoch, 4);
    assert_eq!(report.replayed_writes, 5);
    assert!(
        db.epochs().global_epoch() > report.durable_epoch,
        "the epoch must be fast-forwarded past the recovered horizon"
    );
    // Recovered records are installed at the TIDs their transactions
    // committed with, not at fresh ones.
    assert_eq!(
        versions(&db),
        vec![
            (b"alpha".to_vec(), Tid::new(2, 1), b"updated".to_vec()),
            (b"beta".to_vec(), Tid::new(1, 2), b"2".to_vec()),
        ]
    );
    // And new commits sort after everything recovered.
    let mut w = db.register_worker();
    let mut txn = w.begin();
    txn.write(0, b"post", b"recovery").unwrap();
    assert!(txn.commit().unwrap().epoch() > report.durable_epoch);
}

#[test]
fn interleaved_out_of_epoch_order_buffers_recover_in_tid_order() {
    // Loggers append buffers in arrival order, not epoch order: a slow
    // worker's epoch-2 buffer can land *after* a fast worker's epoch-3
    // buffer in the same stream. Replay must still resolve each key to
    // its largest TID, not to stream order.
    let s = [
        round(&[
            txn_block(Tid::new(3, 5), 0, b"a", Some(b"epoch3")), // newest first in stream
            txn_block(Tid::new(2, 9), 0, b"a", Some(b"epoch2")),
            txn_block(Tid::new(2, 1), 0, b"b", Some(b"b-old")),
            marker(2),
        ]),
        round(&[
            txn_block(Tid::new(3, 2), 0, b"b", Some(b"b-new")),
            txn_block(Tid::new(2, 4), 0, b"c", None), // late delete from an earlier epoch
            marker(4),
        ]),
    ]
    .concat();

    let (db, report) = recover(&[s]);
    assert_eq!(report.durable_epoch, 4);
    assert_eq!(report.replayed_txns, 5);
    assert_eq!(
        versions(&db),
        vec![
            (b"a".to_vec(), Tid::new(3, 5), b"epoch3".to_vec()),
            (b"b".to_vec(), Tid::new(3, 2), b"b-new".to_vec()),
        ]
    );
}

#[test]
fn torn_final_round_is_dropped_without_losing_the_prefix() {
    // A crash mid-append tears the last round; everything before it —
    // including buffers that arrived out of epoch order — must survive.
    let mut s = round(&[
        txn_block(Tid::new(3, 1), 0, b"x", Some(b"keep-3")),
        txn_block(Tid::new(2, 8), 0, b"y", Some(b"keep-2")),
        marker(3),
    ]);
    let good_len = s.len();
    s.extend(round(&[
        txn_block(Tid::new(3, 2), 0, b"z", Some(b"torn")),
        marker(4),
    ]));
    s.truncate(good_len + 6); // crash tears the final round mid-header

    let (db, report) = recover(&[s]);
    assert_eq!(report.durable_epoch, 3);
    assert_eq!(report.replayed_txns, 2);
    assert_eq!(report.corrupt_log_tails, 0, "a torn tail is not corruption");
    assert_eq!(report.log_bytes_scanned, good_len as u64);
    assert_eq!(read(&db, b"x"), Some(b"keep-3".to_vec()));
    assert_eq!(read(&db, b"y"), Some(b"keep-2".to_vec()));
    assert_eq!(read(&db, b"z"), None, "the torn round must not be replayed");
}

#[test]
fn apply_fails_without_schema() {
    let s = round(&[txn_block(Tid::new(1, 1), 5, b"k", Some(b"v")), marker(2)]);
    let dir = scratch_dir("no-schema");
    write_segments(&dir, &[s]);
    let db = Database::open(SiloConfig::for_testing());
    assert!(matches!(
        recover_directory(&db, &dir, &RecoveryOptions::default()),
        Err(RecoveryError::Apply(_))
    ));
}

#[test]
fn zero_length_and_truncated_header_files_recover_cleanly() {
    // Regression: a crash can leave zero-length segments (killed right
    // after rotation) and files torn inside the very first envelope
    // header. Both entry points must treat those as empty streams — not
    // panic, not error, not load anything whole-file.
    let dir = scratch_dir("empty-log");
    std::fs::write(dir.join("silo-log-0-seg000000.bin"), b"").unwrap();
    std::fs::write(dir.join("silo-log-1-seg000000.bin"), b"").unwrap();
    let torn = &sealed(&txn_block(Tid::new(3, 1), 0, b"key", Some(b"value")))[..4];
    std::fs::write(dir.join("silo-log-2-seg000000.bin"), torn).unwrap();
    // Files that are not segments are not log streams.
    std::fs::write(dir.join("silo-log-3.bin"), round(&[marker(9)])).unwrap();

    let db = Database::open(SiloConfig::for_testing());
    db.create_table("t").unwrap();
    let report = recover_directory(&db, &dir, &RecoveryOptions::default()).unwrap();
    assert_eq!(report.durable_epoch, 0);
    assert_eq!(report.replayed_txns, 0);
    assert_eq!(report.log_files, 3);

    // So do the same streams written by the test helper, and no streams
    // at all.
    for streams in [vec![Vec::new(), torn.to_vec()], Vec::new()] {
        let (db, report) = recover(&streams);
        assert_eq!(report.durable_epoch, 0);
        assert_eq!(db.table(0).approximate_len(), 0);
    }
}

#[test]
fn mixed_complete_and_truncated_streams_keep_the_good_data() {
    // One healthy stream plus one whose only round tore: the torn stream
    // never durably recorded epoch 3, so the horizon — the min over
    // streams — is 0 and both transactions fall beyond it.
    let dir = scratch_dir("mixed-log");
    let good = round(&[txn_block(Tid::new(2, 1), 0, b"keep", Some(b"v")), marker(3)]);
    std::fs::write(dir.join("silo-log-0-seg000000.bin"), &good).unwrap();
    let torn = round(&[txn_block(Tid::new(2, 2), 0, b"also", Some(b"w")), marker(3)]);
    let tear_at = torn.len() - 4; // tear inside the trailing marker
    std::fs::write(dir.join("silo-log-1-seg000000.bin"), &torn[..tear_at]).unwrap();

    let db = Database::open(SiloConfig::for_testing());
    db.create_table("t").unwrap();
    let report = recover_directory(&db, &dir, &RecoveryOptions::default()).unwrap();
    assert_eq!(report.durable_epoch, 0);
    assert_eq!(report.skipped_txns, 1, "the torn round is never decoded");
    assert_eq!(report.replayed_txns, 0);
}

#[test]
fn corrupt_round_ends_the_stream_instead_of_failing_recovery() {
    // A malformed block mid-stream (an unknown tag, as a flipped bit in
    // a tag byte would produce; a round whose checksum fails) is the
    // corrupt tail of §4.10: everything before it is replayed,
    // everything after it is not, and recovery reports rather than
    // errors.
    let good = round(&[txn_block(Tid::new(2, 1), 0, b"good", Some(b"v")), marker(2)]);
    let lost = round(&[txn_block(Tid::new(2, 2), 0, b"lost", Some(b"w")), marker(2)]);
    let bad_tag = [good.clone(), vec![0x7F], lost.clone()].concat();
    let mut bad_crc = [good.clone(), lost.clone(), lost].concat();
    bad_crc[good.len() + 12] ^= 0x40;

    for stream in [bad_tag, bad_crc] {
        let (db, report) = recover(&[stream]);
        assert_eq!(report.durable_epoch, 2);
        assert_eq!(report.replayed_txns, 1);
        assert_eq!(report.corrupt_log_tails, 1);
        assert_eq!(report.log_bytes_scanned, good.len() as u64);
        assert_eq!(read(&db, b"good"), Some(b"v".to_vec()));
        assert_eq!(
            read(&db, b"lost"),
            None,
            "nothing past the corrupt block may be resurrected"
        );
    }
}

#[test]
fn nothing_of_a_malformed_envelope_is_replayed() {
    // The envelope's CRC is valid over a good TXN block followed by an
    // unknown tag: its good block must not be applied either.
    let good = round(&[txn_block(Tid::new(2, 1), 0, b"good", Some(b"v")), marker(2)]);
    let mut bad = Vec::new();
    let header = begin_sealed(&mut bad);
    bad.extend(txn_block(Tid::new(2, 2), 0, b"inside", Some(b"w")));
    bad.push(0x7F);
    assert!(seal(&mut bad, header));
    let (db, report) = recover(&[[good.clone(), bad].concat()]);
    assert_eq!(report.replayed_txns, 1);
    assert_eq!(report.corrupt_log_tails, 1);
    assert_eq!(report.log_bytes_scanned, good.len() as u64);
    assert_eq!(read(&db, b"good"), Some(b"v".to_vec()));
    assert_eq!(read(&db, b"inside"), None);
}

#[test]
fn recovery_does_not_depend_on_the_thread_count() {
    // Three streams over shared keys, behind a one-slice checkpoint at
    // epoch 3: covered transactions, overwrites, deletes and re-inserts
    // across streams, and transactions beyond the horizon (epoch 8).
    let dir = scratch_dir("thread-count");
    let keys: Vec<[u8; 2]> = (0..40u16).map(u16::to_be_bytes).collect();
    let ckpt: Vec<(TableId, &[u8], Tid, &[u8])> = keys[..30]
        .iter()
        .enumerate()
        .map(|(i, key)| (0, key.as_slice(), Tid::new(3, i as u64), b"ckpt".as_slice()))
        .collect();
    write_checkpoint(&dir, 3, &[(&slice_bytes(&ckpt), ckpt.len() as u64)]);
    let streams: Vec<Vec<u8>> = (0..3u64)
        .map(|stream| {
            let mut blocks = Vec::new();
            for (i, key) in keys.iter().enumerate() {
                let i = i as u64;
                let value = format!("s{stream}-{i}");
                for epoch in 2..=8 {
                    // Which stream holds a key's newest write varies by key.
                    let seq = 100 * i + 10 * ((stream + i) % 3) + epoch;
                    let value = match (i + stream + epoch) % 4 {
                        0 => None,
                        _ => Some(value.as_bytes()),
                    };
                    blocks.push(txn_block(Tid::new(epoch, seq), 0, key, value));
                }
            }
            blocks.push(marker(7));
            round(&blocks)
        })
        .collect();
    write_segments(&dir, &streams);

    let recover_with = |replay_threads: usize| {
        let db = Database::open(SiloConfig::for_testing());
        db.create_table("t").unwrap();
        let r = recover_directory(&db, &dir, &RecoveryOptions { replay_threads }).unwrap();
        assert_no_absent_record(&db);
        let counts = [
            r.durable_epoch,
            r.replayed_txns,
            r.replayed_writes,
            r.skipped_txns,
            r.covered_txns,
        ];
        (versions(&db), counts)
    };
    let one = recover_with(1);
    assert_eq!(one.1, [7, 3 * 40 * 4, 3 * 40 * 4, 3 * 40, 3 * 40 * 2]);
    assert!(one.0.len() < keys.len(), "some key ends deleted");
    assert!(!one.0.is_empty());
    for threads in [2, 3, 4, 7] {
        assert_eq!(recover_with(threads), one, "{threads} replay threads");
    }
}

#[test]
fn bare_block_outside_an_envelope_is_a_corrupt_tail() {
    // Only the logger's sealed rounds are replayed. A well-formed TXN
    // block sitting bare at the top level carries no checksum, so it is
    // treated like any other damage: the stream ends there.
    let good = round(&[txn_block(Tid::new(2, 1), 0, b"good", Some(b"v")), marker(2)]);
    let bare = [
        good,
        txn_block(Tid::new(2, 2), 0, b"bare", Some(b"w")),
        marker(2),
    ]
    .concat();
    let (db, report) = recover(&[bare]);
    assert_eq!(report.corrupt_log_tails, 1);
    assert_eq!(report.replayed_txns, 1);
    assert_eq!(read(&db, b"good"), Some(b"v".to_vec()));
    assert_eq!(read(&db, b"bare"), None);
}

include!("checkpoint_tests.rs");
