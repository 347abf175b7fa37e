// Checkpoint plus tail replays to what the full log does, for arbitrary
// histories. Included into `crate::tests` (lib.rs).

mod checkpoint_equivalence {
    //! Property test for the recovery horizon story: restoring the latest
    //! checkpoint (epoch `ce`) and replaying only the log tail must be
    //! byte-for-byte equivalent to replaying the *full* log from scratch,
    //! for arbitrary commit histories — including deletes and re-inserts
    //! whose lifetimes straddle the checkpoint epoch, and whether or not the
    //! covered log prefix was already truncated away.

    use super::*;
    use crate::record::{encode_epoch_marker, encode_txn};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use silo_core::Tid;
    use std::collections::HashMap;

    const MAX_EPOCH: u64 = 5;

    fn key_bytes(k: u8) -> Vec<u8> {
        vec![b'k', b'0' + k / 10, b'0' + k % 10]
    }

    fn value_bytes(v: u8) -> Vec<u8> {
        vec![v; (v % 5) as usize + 1]
    }

    /// One logged transaction: (epoch, writes as (key, Some(value) | delete)).
    fn arb_txn() -> impl Strategy<Value = (u8, Vec<(u8, Option<u8>)>)> {
        (
            1u8..=MAX_EPOCH as u8,
            vec((0u8..12, proptest::option::of(any::<u8>())), 1..4),
        )
    }

    /// Writes `streams` as one segment file per logger under `dir`, each
    /// stream terminated by a durable-epoch marker at `durable`.
    fn write_log_dir(dir: &std::path::Path, streams: &[Vec<u8>], durable: u64) {
        std::fs::create_dir_all(dir).unwrap();
        let sealed_streams: Vec<Vec<u8>> = streams
            .iter()
            .map(|stream| {
                let mut bytes = stream.clone();
                encode_epoch_marker(&mut bytes, durable);
                sealed(&bytes)
            })
            .collect();
        write_segments(dir, &sealed_streams);
    }

    /// Writes a checkpoint at `ce` holding `state` (key -> (tid, value)) in
    /// the on-disk slice + manifest format.
    fn write_checkpoint(dir: &std::path::Path, ce: u64, state: &HashMap<u8, (Tid, Vec<u8>)>) {
        use crate::testkit::write_checkpoint as write_slices;
        let mut keys: Vec<(Vec<u8>, &(Tid, Vec<u8>))> =
            state.iter().map(|(k, v)| (key_bytes(*k), v)).collect();
        keys.sort();
        let records: Vec<(silo_core::TableId, &[u8], Tid, &[u8])> = keys
            .iter()
            .map(|(key, (tid, value))| (0, key.as_slice(), *tid, value.as_slice()))
            .collect();
        write_slices(dir, ce, &[(&slice_bytes(&records), records.len() as u64)]);
    }

    /// Recovers `dir` into a fresh database and returns the full table scan.
    fn recover_scan(dir: &std::path::Path) -> Vec<(Vec<u8>, Vec<u8>)> {
        let db = Database::open(SiloConfig::for_testing());
        let t = db.create_table("t").unwrap();
        recover_directory(&db, dir, &RecoveryOptions { replay_threads: 2 }).unwrap();
        full_scan(&db, t)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn checkpoint_plus_tail_equals_full_log_replay(
            txns in vec(arb_txn(), 1..32),
            ce in 0u64..=MAX_EPOCH,
            split_bits in any::<u64>(),
        ) {
            // Assign each transaction a unique TID (its position is the
            // sequence number, so same-epoch TIDs are distinct) and spread
            // them over two logger streams — arrival order within a stream is
            // *not* TID order, exactly as with real loggers.
            let mut streams = vec![Vec::new(), Vec::new()];
            let mut tail_streams = vec![Vec::new(), Vec::new()];
            let mut model: HashMap<u8, (Tid, Option<Vec<u8>>)> = HashMap::new();
            // Same shape for the checkpoint-time state: deletes must keep
            // their TID as a tombstone while folding (generation order is
            // not TID order), and only materialize as "key absent" at the
            // end.
            let mut ckpt_model: HashMap<u8, (Tid, Option<Vec<u8>>)> = HashMap::new();
            for (i, (epoch, raw_writes)) in txns.iter().enumerate() {
                let tid = Tid::new(*epoch as u64, i as u64 + 1);
                // A committed write-set holds one entry per key (later writes
                // in a transaction overwrite earlier ones): dedupe last-wins.
                let mut writes: Vec<(u8, Option<u8>)> = Vec::new();
                for (k, v) in raw_writes {
                    if let Some(slot) = writes.iter_mut().find(|(key, _)| key == k) {
                        slot.1 = *v;
                    } else {
                        writes.push((*k, *v));
                    }
                }
                let encoded: Vec<(silo_core::TableId, Vec<u8>, Option<Vec<u8>>)> = writes
                    .iter()
                    .map(|(k, v)| (0, key_bytes(*k), v.map(value_bytes)))
                    .collect();
                let borrowed: Vec<(silo_core::TableId, &[u8], Option<&[u8]>)> = encoded
                    .iter()
                    .map(|(t, k, v)| (*t, k.as_slice(), v.as_deref()))
                    .collect();
                let stream = ((split_bits >> (i % 64)) & 1) as usize;
                encode_txn(&mut streams[stream], tid, as_writes(&borrowed), false);
                if tid.epoch() > ce {
                    encode_txn(&mut tail_streams[stream], tid, as_writes(&borrowed), false);
                }
                for (k, v) in &writes {
                    // Reference model: the largest TID wins per key.
                    let slot = model.entry(*k).or_insert((Tid::ZERO, None));
                    if tid > slot.0 {
                        *slot = (tid, v.map(value_bytes));
                    }
                    // Checkpoint state: largest TID at or below `ce` wins.
                    if tid.epoch() <= ce {
                        let slot = ckpt_model.entry(*k).or_insert((Tid::ZERO, None));
                        if tid > slot.0 {
                            *slot = (tid, v.map(value_bytes));
                        }
                    }
                }
            }
            // Deleted keys are simply not present in a written checkpoint.
            let ckpt_state: HashMap<u8, (Tid, Vec<u8>)> = ckpt_model
                .into_iter()
                .filter_map(|(k, (tid, v))| v.map(|v| (k, (tid, v))))
                .collect();
            let expected: Vec<(Vec<u8>, Vec<u8>)> = {
                let mut rows: Vec<_> = model
                    .iter()
                    .filter_map(|(k, (_, v))| v.clone().map(|v| (key_bytes(*k), v)))
                    .collect();
                rows.sort();
                rows
            };

            let root = scratch_dir("ckpt-prop");

            // (a) Full-log replay, no checkpoint.
            let full = root.join("full");
            write_log_dir(&full, &streams, MAX_EPOCH + 1);
            prop_assert_eq!(&recover_scan(&full), &expected, "full-log replay diverged");

            if ce > 0 {
                // (b) Checkpoint + *untruncated* logs: the covered prefix is
                // still on disk and must be skipped, not double-applied.
                let with_ckpt = root.join("ckpt-full-logs");
                write_log_dir(&with_ckpt, &streams, MAX_EPOCH + 1);
                write_checkpoint(&with_ckpt, ce, &ckpt_state);
                prop_assert_eq!(
                    &recover_scan(&with_ckpt), &expected,
                    "checkpoint + untruncated log diverged (ce={})", ce
                );

                // (c) Checkpoint + truncated logs: only the tail survives.
                let truncated = root.join("ckpt-tail-only");
                write_log_dir(&truncated, &tail_streams, MAX_EPOCH + 1);
                write_checkpoint(&truncated, ce, &ckpt_state);
                prop_assert_eq!(
                    &recover_scan(&truncated), &expected,
                    "checkpoint + truncated log diverged (ce={})", ce
                );
            }
        }
    }
}
