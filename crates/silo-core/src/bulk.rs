//! Bulk-load paths for recovery (paper §4.10).
//!
//! Recovery rebuilds a database from a checkpoint plus a log tail. Both
//! sources carry the commit TID of every record version, and both are applied
//! *outside* the commit protocol: there are no concurrent transactions during
//! recovery, so records are installed directly into the index with their
//! original TIDs. Conflicts between sources — a checkpointed record also
//! present in the (un-truncated) log, or the same key written by several
//! logged transactions replayed on different threads — are resolved by TID:
//! only the largest TID's value survives, exactly as the paper prescribes
//! ("log records for the same record must be applied in TID order").
//!
//! Concurrency contract: many threads may call [`bulk_apply`] on the *same*
//! table concurrently as long as no two of them ever pass the same key (the
//! recovery pipeline shards log records by key hash to guarantee this), and
//! no transactional workers run until recovery completes.

use silo_tid::{Tid, TidWord};

use crate::database::Table;
use crate::record::Record;

/// What [`bulk_apply`] did with the supplied write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BulkOutcome {
    /// The key was absent; a new record was installed.
    Inserted,
    /// The key existed with a smaller TID; its value was replaced.
    Updated,
    /// The key existed with a smaller TID; it was marked absent (deleted).
    Deleted,
    /// The key already carried an equal or larger TID; nothing was changed.
    Stale,
    /// A delete for a key that had no record yet; an absent *tombstone* was
    /// installed so that writes with smaller TIDs arriving later (replay
    /// order is not TID order) cannot resurrect the key.
    Tombstoned,
}

/// Applies one recovered write (`value = None` for a delete) to `table`,
/// resolving conflicts by TID: the write only takes effect if `tid` is
/// strictly larger than the TID currently stored for the key.
///
/// # Safety
///
/// Recovery-mode exclusivity: no transactional access to the database may be
/// in flight, and no other thread may concurrently `bulk_apply` the *same*
/// `(table, key)` (distinct keys are fine — the index handles concurrent
/// structural changes). A superseded record that no longer fits its new value
/// is released immediately (a slab record is kept for the next worker to
/// register, any other is freed), which is only sound under this contract.
pub unsafe fn bulk_apply(table: &Table, key: &[u8], tid: Tid, value: Option<&[u8]>) -> BulkOutcome {
    let tree = table.tree();
    loop {
        match tree.get(key) {
            None => {
                // A delete of an unseen key still installs a record — an
                // absent tombstone carrying the delete's TID — because a
                // *smaller*-TID insert of the same key may still be in
                // flight on this shard (streams interleave epochs, so
                // arrival order is not TID order) and must lose.
                let (payload, absent) = match value {
                    Some(value) => (value, false),
                    None => (&[][..], true),
                };
                let word = TidWord::new(tid, false, true, absent);
                let record = table.allocate_record(payload, word);
                match tree.insert_if_absent(key, record as u64) {
                    silo_index::InsertOutcome::Inserted { .. } => {
                        return if absent {
                            BulkOutcome::Tombstoned
                        } else {
                            BulkOutcome::Inserted
                        }
                    }
                    silo_index::InsertOutcome::Exists { .. } => {
                        // Raced with another shard inserting a *different*
                        // key that split our leaf — impossible for the same
                        // key under the exclusivity contract, so the retry
                        // can only happen when `get` raced a concurrent
                        // structural change. Free the unpublished record and
                        // go through the existing-record path.
                        // SAFETY: never published; exclusively ours.
                        unsafe { table.release_record(record) };
                        continue;
                    }
                }
            }
            Some(ptr) => {
                let record = ptr as *mut Record;
                // SAFETY: the key maps to this record and the exclusivity
                // contract means no one else can free it.
                let rec = unsafe { &*record };
                let current = rec.tid().load();
                if current.tid() >= tid {
                    return BulkOutcome::Stale;
                }
                match value {
                    Some(value) if rec.fits(value) => {
                        rec.tid().lock();
                        // SAFETY: lock held, fits checked.
                        unsafe { rec.overwrite(value) };
                        rec.tid()
                            .store_and_unlock(TidWord::new(tid, false, true, false));
                        return BulkOutcome::Updated;
                    }
                    Some(value) => {
                        // The new value outgrew the record: install a fresh
                        // record and release the old one (no snapshot reader
                        // can need it during recovery).
                        let word = TidWord::new(tid, false, true, false);
                        let fresh = table.allocate_record(value, word);
                        let updated = tree.update_value(key, fresh as u64);
                        debug_assert!(updated, "recovered key vanished from the index");
                        // SAFETY: exclusivity contract — nothing else holds a
                        // pointer to the superseded record.
                        unsafe { table.release_record(record) };
                        return BulkOutcome::Updated;
                    }
                    None => {
                        // Delete: mark the record absent, as the engine's own
                        // delete path does. No `Garbage::Unhook` is registered
                        // (recovery runs without the worker/GC machinery); the
                        // post-replay [`sweep_absent`] pass unhooks and frees
                        // whatever stays absent once all streams are applied.
                        rec.tid().lock();
                        rec.tid()
                            .store_and_unlock(TidWord::new(tid, false, true, true));
                        return BulkOutcome::Deleted;
                    }
                }
            }
        }
    }
}

/// Unhooks every *absent* record still reachable from `table`'s index — the
/// tombstones recovery installs for deletes of unseen keys, plus present
/// keys whose recovered final action was a delete — and releases the
/// records (a slab record is kept for the next worker to register).
/// Returns the number of keys reclaimed.
///
/// During normal operation the garbage collector performs this cleanup
/// lazily (a touching write revives or supersedes the record); after
/// recovery there are no workers yet, so without this sweep a tombstone
/// would stay hooked until some future write happens to touch its key.
/// The index walk is chunked so memory stays bounded on large tables.
///
/// # Safety
///
/// Recovery-mode exclusivity, as for [`bulk_apply`]: no transactional or
/// concurrent bulk access to `table` may be in flight. Records and removed
/// index entries are released immediately, which is only sound under this
/// contract.
pub unsafe fn sweep_absent(table: &Table) -> u64 {
    const CHUNK: usize = 1024;
    let tree = table.tree();
    let mut reclaimed = 0u64;
    let mut start: Vec<u8> = Vec::new();
    loop {
        let result = tree.scan(&start, None, Some(CHUNK));
        let n = result.entries.len();
        for (key, value) in result.entries {
            let record = value as *mut Record;
            // SAFETY: exclusivity contract — the record is alive and no one
            // else can free it.
            let word = unsafe { (*record).tid().load() };
            if word.is_latest() && word.is_absent() {
                if let Some(removed) = tree.remove(&key) {
                    debug_assert_eq!(removed.value, value);
                    // Exclusive access: no concurrent reader can still hold
                    // the suffix or the record, so both free immediately.
                    drop(removed);
                    // SAFETY: unhooked above; exclusively ours.
                    unsafe { table.release_record(record) };
                    reclaimed += 1;
                }
            }
            start = key;
        }
        if n < CHUNK {
            return reclaimed;
        }
        start.push(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SiloConfig;
    use crate::database::Database;

    #[test]
    fn sweep_absent_reclaims_tombstones_and_deleted_keys() {
        let db = Database::open(SiloConfig::for_testing());
        let t = db.create_table("t").unwrap();
        let table = db.table(t);
        // SAFETY: single-threaded test, no transactions in flight.
        unsafe {
            // A live key, a tombstone for an unseen key, and a key whose
            // final recovered action was a delete.
            bulk_apply(&table, b"alive", Tid::new(2, 1), Some(b"v"));
            bulk_apply(&table, b"ghost", Tid::new(3, 1), None);
            bulk_apply(&table, b"gone", Tid::new(2, 2), Some(b"v"));
            bulk_apply(&table, b"gone", Tid::new(3, 2), None);
            assert_eq!(table.tree().len(), 3, "absent records stay hooked");
            assert_eq!(sweep_absent(&table), 2);
        }
        assert_eq!(table.tree().len(), 1);
        let mut w = db.register_worker();
        let mut txn = w.begin();
        assert_eq!(txn.read(t, b"alive").unwrap(), Some(b"v".to_vec()));
        assert_eq!(txn.read(t, b"ghost").unwrap(), None);
        assert_eq!(txn.read(t, b"gone").unwrap(), None);
        // The swept keys are fully usable again.
        txn.insert(t, b"gone", b"back").unwrap();
        txn.commit().unwrap();
    }

    #[test]
    fn insert_update_delete_resolve_by_tid() {
        let db = Database::open(SiloConfig::for_testing());
        let t = db.create_table("t").unwrap();
        let table = db.table(t);

        // SAFETY: single-threaded test, no transactions in flight.
        unsafe {
            assert_eq!(
                bulk_apply(&table, b"k", Tid::new(2, 1), Some(b"v1")),
                BulkOutcome::Inserted
            );
            // Older TID loses.
            assert_eq!(
                bulk_apply(&table, b"k", Tid::new(1, 9), Some(b"old")),
                BulkOutcome::Stale
            );
            // Newer TID wins, both in place and with a re-allocation.
            assert_eq!(
                bulk_apply(&table, b"k", Tid::new(3, 0), Some(b"x")),
                BulkOutcome::Updated
            );
            assert_eq!(
                bulk_apply(&table, b"k", Tid::new(3, 1), Some(&vec![7u8; 512])),
                BulkOutcome::Updated
            );
            // Delete of an unseen key installs a tombstone that beats any
            // smaller-TID write arriving later; delete of a present key
            // marks it absent; a later re-insert revives it.
            assert_eq!(
                bulk_apply(&table, b"nope", Tid::new(9, 0), None),
                BulkOutcome::Tombstoned
            );
            assert_eq!(
                bulk_apply(&table, b"nope", Tid::new(8, 0), Some(b"resurrect")),
                BulkOutcome::Stale
            );
            assert_eq!(
                bulk_apply(&table, b"k", Tid::new(4, 0), None),
                BulkOutcome::Deleted
            );
            assert_eq!(
                bulk_apply(&table, b"k", Tid::new(5, 0), Some(b"back")),
                BulkOutcome::Updated
            );
        }

        let mut w = db.register_worker();
        let mut txn = w.begin();
        assert_eq!(txn.read(t, b"k").unwrap(), Some(b"back".to_vec()));
        assert_eq!(
            txn.read(t, b"nope").unwrap(),
            None,
            "tombstone must hide the key"
        );
        txn.commit().unwrap();
    }

    #[test]
    fn recovered_records_are_fully_transactional() {
        let db = Database::open(SiloConfig::for_testing());
        let t = db.create_table("t").unwrap();
        let table = db.table(t);
        for i in 0..100u32 {
            // SAFETY: single-threaded test, no transactions in flight.
            unsafe {
                bulk_apply(
                    &table,
                    &i.to_be_bytes(),
                    Tid::new(2, i as u64),
                    Some(format!("v{i}").as_bytes()),
                );
            }
        }
        let mut w = db.register_worker();
        let mut txn = w.begin();
        let all = txn.scan(t, b"", None, None).unwrap();
        assert_eq!(all.len(), 100);
        txn.write(t, &5u32.to_be_bytes(), b"rewritten").unwrap();
        txn.commit().unwrap();
        let mut txn = w.begin();
        assert_eq!(
            txn.read(t, &5u32.to_be_bytes()).unwrap(),
            Some(b"rewritten".to_vec())
        );
        txn.commit().unwrap();
    }
}
