// Recovery from a checkpoint plus the log tail behind it: a damaged
// checkpoint is refused rather than skipped, nothing of a failed slice is
// published, and the tail merges into each table's checkpoint run. Included
// into `recovery::tests` (tests.rs), which holds the imports and helpers.

/// The records of the newer checkpoint below.
fn evil() -> [(TableId, &'static [u8], Tid, &'static [u8]); 2] {
    [
        (0, b"k", Tid::new(5, 1), b"evil"),
        (0, b"x", Tid::new(5, 2), b"evil"),
    ]
}

/// A durability root holding a good checkpoint at epoch 3 (`k = good`)
/// and a newer one at epoch 5 ([`evil`]) whose slice `damage` mangled.
/// Its manifest claims the mangled slice's length and both records, so
/// only the slice's contents can give the damage away.
fn damaged_newer_checkpoint(name: &str, damage: impl Fn(&mut Vec<u8>)) -> ScratchDir {
    let dir = scratch_dir(name);
    let good = slice_bytes(&[(0, b"k", Tid::new(3, 1), b"good")]);
    write_checkpoint(&dir, 3, &[(&good, 1)]);
    let mut newer = slice_bytes(&evil());
    damage(&mut newer);
    write_checkpoint(&dir, 5, &[(&newer, evil().len() as u64)]);
    dir
}

/// The newer checkpoint of [`damaged_newer_checkpoint`] is complete by
/// its manifest and fails its slice's checks as `InvalidData`, so
/// recovery refuses it.
fn assert_recovery_refuses(name: &str, damage: impl Fn(&mut Vec<u8>)) {
    let dir = damaged_newer_checkpoint(name, damage);
    let err = assert_refused(&dir);
    assert!(err.to_string().starts_with("checkpoint slice "), "{err}");
}

/// Recovery from `dir` fails on the checkpoint at epoch 5 as
/// `InvalidData` and loads nothing — not even the intact one at epoch 3,
/// which the log behind the newer one no longer extends. Returns the
/// error inside the `RecoveryError::Checkpoint`.
fn assert_refused(dir: &Path) -> std::io::Error {
    let db = Database::open(SiloConfig::for_testing());
    db.create_table("t").unwrap();
    let error = match recover_directory(&db, dir, &RecoveryOptions::default()) {
        Err(RecoveryError::Checkpoint { epoch: 5, error }) => error,
        other => panic!("recovery from a damaged checkpoint returned {other:?}"),
    };
    assert_eq!(error.kind(), std::io::ErrorKind::InvalidData, "{error}");
    assert_eq!(db.table(0).approximate_len(), 0, "nothing is loaded");
    error
}

#[test]
fn a_damaged_manifest_fails_recovery_instead_of_hiding_its_checkpoint() {
    // Each edit leaves a manifest that no longer describes its slices, so
    // reading the checkpoint at epoch 5 fails on its manifest.
    for (name, from, to) in [
        ("ckpt-manifest-epoch", "epoch 5", "epoch 7"),
        ("ckpt-manifest-length", "slice 0 ", "slice 0 1"),
        ("ckpt-manifest-end", "end", "enD"),
    ] {
        let dir = damaged_newer_checkpoint(name, |_| {});
        let manifest = dir.join("checkpoints/ckpt-0000000000000005/MANIFEST");
        let text = std::fs::read_to_string(&manifest).unwrap();
        std::fs::write(&manifest, text.replace(from, to)).unwrap();
        let (epoch, newest) = crate::checkpoint::newest_checkpoint(&dir).unwrap();
        let err = newest.unwrap_err();
        assert_eq!(epoch, 5);
        assert!(err.to_string().contains("manifest is damaged"), "{err}");
        assert_refused(&dir);
    }
}

// Each damage case below names the fallback recovery must not take: it
// refuses instead (see `assert_recovery_refuses`).
#[test]
fn recovery_falls_back_past_a_corrupt_checkpoint() {
    assert_recovery_refuses("ckpt-fallback", |slice| {
        let last = slice.len() - 1;
        slice[last] ^= 0x01;
    });
}

#[test]
fn slice_with_a_damaged_first_tag_is_rejected_and_recovery_falls_back() {
    assert_recovery_refuses("ckpt-tag", |slice| slice[0] ^= 0x20);
}

#[test]
fn slice_with_an_inflated_envelope_length_is_rejected_and_recovery_falls_back() {
    // The decoder reads the now-short envelope as a torn tail — a clean
    // end for a log, never for a slice.
    assert_recovery_refuses("ckpt-length", |slice| slice[4] ^= 0x01);
}

#[test]
fn slice_missing_a_record_is_rejected_and_recovery_falls_back() {
    assert_recovery_refuses("ckpt-short", |slice| {
        *slice = slice_bytes(&evil()[..1]);
    });
}

#[test]
fn slice_holding_an_epoch_marker_is_rejected_and_recovery_falls_back() {
    assert_recovery_refuses("ckpt-marker", |slice| {
        let [(_, k, k_tid, k_value), (_, x, x_tid, x_value)] = evil();
        *slice = round(&[
            txn_block(k_tid, 0, k, Some(k_value)),
            marker(5),
            txn_block(x_tid, 0, x, Some(x_value)),
        ]);
    });
}

/// A checkpoint of three slices, one table each, whose middle slice is
/// damaged: the other two read cleanly, but recovery publishes neither,
/// whichever loader reads which slice and in what order.
#[test]
fn a_failed_slice_publishes_nothing() {
    let dir = scratch_dir("ckpt-all-or-nothing");
    // Several envelopes per slice, so the damaged one loads a prefix.
    let value = [7u8; 100];
    let keys: Vec<[u8; 4]> = (0..2_000u32).map(u32::to_be_bytes).collect();
    let mut slices: Vec<Vec<u8>> = (0..3)
        .map(|table| {
            let records: Vec<(TableId, &[u8], Tid, &[u8])> = keys
                .iter()
                .map(|key| (table, key.as_slice(), Tid::new(3, 1), value.as_slice()))
                .collect();
            slice_bytes(&records)
        })
        .collect();
    let middle = slices[1].len() / 2;
    slices[1][middle] ^= 0x01;
    let manifest: Vec<(&[u8], u64)> = slices
        .iter()
        .map(|slice| (slice.as_slice(), keys.len() as u64))
        .collect();
    write_checkpoint(&dir, 3, &manifest);

    for replay_threads in [1, 3] {
        let db = Database::open(SiloConfig::for_testing());
        let tables: Vec<TableId> = ["a", "b", "c"]
            .iter()
            .map(|name| db.create_table(name).unwrap())
            .collect();
        match recover_directory(&db, &dir, &RecoveryOptions { replay_threads }) {
            Err(RecoveryError::Checkpoint { epoch: 3, error }) => {
                assert_eq!(error.kind(), std::io::ErrorKind::InvalidData, "{error}")
            }
            other => panic!("{replay_threads} loaders: a damaged slice returned {other:?}"),
        }
        let mut w = db.register_worker();
        for t in tables {
            assert_eq!(db.table(t).approximate_len(), 0, "{replay_threads} loaders");
            let mut txn = w.begin();
            assert_eq!(txn.scan(t, b"", None, None).unwrap(), Vec::new());
            txn.commit().unwrap();
        }
    }
}

/// A tail delete of a key nothing else holds builds nothing, and a
/// larger-TID insert of the same key revives it: the key stays.
#[test]
fn a_revived_tombstone_is_not_reclaimed() {
    let s = round(&[
        txn_block(Tid::new(2, 5), 0, b"r", None),
        txn_block(Tid::new(3, 1), 0, b"r", Some(b"back")),
        txn_block(Tid::new(2, 6), 0, b"d", None),
        marker(3),
    ]);
    let (db, _) = recover(&[s]);
    assert_eq!(read(&db, b"r"), Some(b"back".to_vec()));
    assert_eq!(db.table(0).approximate_len(), 1, "only `r` is built");
    assert_no_absent_record(&db);
}

/// A durability root holding a checkpoint at epoch 3 of `rows` in table
/// 0 and one log stream of `blocks`, recovered into a fresh database.
fn recover_checkpoint_and_tail(
    rows: &[(&[u8], &[u8])],
    blocks: &[Vec<u8>],
) -> (Arc<Database>, RecoveryReport) {
    let dir = scratch_dir("ckpt-and-tail");
    let records: Vec<(TableId, &[u8], Tid, &[u8])> = rows
        .iter()
        .map(|&(key, value)| (0, key, Tid::new(3, 1), value))
        .collect();
    write_checkpoint(&dir, 3, &[(&slice_bytes(&records), records.len() as u64)]);
    write_segments(&dir, &[round(blocks)]);
    recovered("t", &dir)
}

#[test]
fn a_tail_only_key_whose_last_write_is_a_delete_is_never_built() {
    let (db, report) = recover_checkpoint_and_tail(
        &[(b"m", b"ckpt")],
        &[
            txn_block(Tid::new(4, 1), 0, b"a", Some(b"short-lived")),
            txn_block(Tid::new(4, 2), 0, b"a", None),
            txn_block(Tid::new(4, 3), 0, b"z", None),
            txn_block(Tid::new(5, 1), 0, b"b", Some(b"v")),
            txn_block(Tid::new(5, 2), 0, b"b", None),
            marker(5),
        ],
    );
    assert_eq!(report.replayed_writes, 5);
    let table = db.table(0);
    for key in [&b"a"[..], b"b", b"z"] {
        assert!(table.tree().get(key).is_none(), "{key:?} was built");
    }
    assert_eq!(
        versions(&db),
        [(b"m".to_vec(), Tid::new(3, 1), b"ckpt".to_vec())]
    );
}

#[test]
fn a_checkpoint_row_deleted_in_the_tail_is_gone() {
    let (db, _) = recover_checkpoint_and_tail(
        &[(b"a", b"1"), (b"b", b"2"), (b"c", b"3")],
        &[
            txn_block(Tid::new(4, 1), 0, b"b", None),
            txn_block(Tid::new(4, 2), 0, b"c", Some(b"tail")),
            marker(4),
        ],
    );
    assert!(db.table(0).tree().get(b"b").is_none());
    assert_eq!(
        versions(&db),
        [
            (b"a".to_vec(), Tid::new(3, 1), b"1".to_vec()),
            (b"c".to_vec(), Tid::new(4, 2), b"tail".to_vec()),
        ]
    );
    assert_no_absent_record(&db);
}

#[test]
fn the_larger_tid_wins_a_key_in_two_streams_in_either_order() {
    let newer = round(&[
        txn_block(Tid::new(3, 5), 0, b"k", Some(b"newer")),
        txn_block(Tid::new(3, 6), 0, b"gone", None),
        marker(4),
    ]);
    let older = round(&[
        txn_block(Tid::new(3, 2), 0, b"k", Some(b"older")),
        txn_block(Tid::new(3, 1), 0, b"gone", Some(b"older")),
        marker(4),
    ]);
    for streams in [[newer.clone(), older.clone()], [older, newer]] {
        let (db, _) = recover(&streams);
        assert_eq!(
            versions(&db),
            [(b"k".to_vec(), Tid::new(3, 5), b"newer".to_vec())]
        );
        assert_no_absent_record(&db);
    }
}

/// Keys that share their first 16 bytes, the part the sort compares
/// inline, or differ only by trailing zero bytes, still sort and merge
/// by all of their bytes.
#[test]
fn keys_alike_in_their_first_bytes_sort_by_all_of_them() {
    let keys: [&[u8]; 5] = [
        b"0123456789abcde",
        b"0123456789abcde\0",
        b"0123456789abcdef",
        b"0123456789abcdef\0",
        b"0123456789abcdefa",
    ];
    // Each key twice in each stream, in reverse key order; the newest
    // write of even keys is in the second stream.
    let stream = |s: u64| {
        let mut blocks = Vec::new();
        for (i, key) in keys.iter().enumerate().rev() {
            for seq in [1, 2] {
                let newest = (i as u64 + s) % 2 * 10;
                let tid = Tid::new(3, 100 * i as u64 + newest + seq);
                blocks.push(txn_block(tid, 0, key, Some(format!("{tid:?}").as_bytes())));
            }
        }
        blocks.push(marker(3));
        round(&blocks)
    };
    let (db, _) = recover(&[stream(0), stream(1)]);
    let expected: Vec<(Vec<u8>, Tid, Vec<u8>)> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| {
            let tid = Tid::new(3, 100 * i as u64 + 12);
            (key.to_vec(), tid, format!("{tid:?}").into_bytes())
        })
        .collect();
    assert_eq!(versions(&db), expected);
}

/// Records of every size class are carved from the record slab, whether
/// from the checkpoint or the tail; a build that is dropped because a
/// slice failed hands each to the next worker's pool.
#[test]
fn recovered_records_of_every_class_come_from_the_slab_and_return_to_a_pool() {
    const CLASSES: [usize; 7] = [16, 32, 64, 128, 256, 512, 1024];
    let values: Vec<Vec<u8>> = CLASSES.iter().map(|&cap| vec![1; cap]).collect();
    let keys: Vec<[u8; 1]> = (0..=CLASSES.len() as u8).map(|i| [i]).collect();
    // Even classes come from the checkpoint, odd ones from the tail. The
    // last key's checkpoint row is replaced by a tail value of the
    // largest class.
    let last = CLASSES.len();
    let records = |table: TableId| -> Vec<(TableId, &[u8], Tid, &[u8])> {
        (0..CLASSES.len())
            .step_by(2)
            .map(|i| (table, keys[i].as_slice(), Tid::new(3, 1), &values[i][..]))
            .chain([(table, &keys[last][..], Tid::new(3, 1), &values[0][..])])
            .collect()
    };
    let mut tail: Vec<Vec<u8>> = (1..CLASSES.len())
        .step_by(2)
        .map(|i| txn_block(Tid::new(4, i as u64), 0, &keys[i], Some(&values[i])))
        .collect();
    tail.push(txn_block(
        Tid::new(4, 9),
        0,
        &keys[last],
        Some(&values[last - 1]),
    ));
    tail.push(marker(4));
    let recover_into = |slices: &[(&[u8], u64)]| {
        let dir = scratch_dir("slab-classes");
        write_checkpoint(&dir, 3, slices);
        write_segments(&dir, &[round(&tail)]);
        let db = Database::open(SiloConfig::for_testing());
        db.create_table("t").unwrap();
        db.create_table("u").unwrap();
        let result = recover_directory(&db, &dir, &RecoveryOptions::default());
        (db, result)
    };

    let good = slice_bytes(&records(0));
    let (db, result) = recover_into(&[(&good, 5)]);
    result.unwrap();
    let table = db.table(0);
    for (i, key) in keys.iter().enumerate() {
        let cap = CLASSES[i.min(last - 1)];
        let rec = table.tree().get(key).unwrap() as *const silo_core::record::Record;
        // SAFETY: the key's live record; no transaction runs.
        let (from_slab, capacity) = unsafe { ((*rec).from_slab(), (*rec).capacity()) };
        assert!(from_slab, "class {cap}");
        assert_eq!(capacity, cap);
    }

    // The same build, dropped because table `u`'s slice is damaged.
    let mut rotted = slice_bytes(&records(1));
    let middle = rotted.len() / 2;
    rotted[middle] ^= 0x01;
    let (db, result) = recover_into(&[(&good, 5), (&rotted, 5)]);
    assert!(matches!(result, Err(RecoveryError::Checkpoint { .. })));
    let mut w = db.register_worker();
    let mut txn = w.begin();
    for (key, value) in keys.iter().zip(&values) {
        txn.insert(0, key, value).unwrap();
    }
    txn.commit().unwrap();
    assert_eq!(w.stats().pool_misses, 0, "every class came from the pool");
    assert_eq!(w.stats().pool_hits, CLASSES.len() as u64);
}
