//! Bulk-load paths: recovery (paper §4.10) and the initial population.
//!
//! Recovery rebuilds a database from a checkpoint plus a log tail. Both
//! sources carry the commit TID of every record version, and both are applied
//! *outside* the commit protocol: there are no concurrent transactions during
//! recovery, so records are installed directly into the index with their
//! original TIDs. A checkpoint holds each table whole and in key order, so
//! [`bulk_load`] builds each table's index bottom-up from it. The log tail
//! goes through [`bulk_apply`] one write at a time, because its sources
//! conflict — a checkpointed record also present in the (un-truncated) log,
//! or the same key written by several logged transactions replayed on
//! different threads — and are resolved by TID: only the largest TID's value
//! survives, exactly as the paper prescribes ("log records for the same
//! record must be applied in TID order").
//!
//! Concurrency contract: many threads may call [`bulk_apply`] on the *same*
//! table concurrently as long as no two of them ever pass the same key (the
//! recovery pipeline shards log records by key hash to guarantee this), and
//! no transactional workers run until recovery completes.
//!
//! A replayed delete leaves an absent record hooked in the index: it must
//! beat any smaller-TID write of its key still to come. Once every write is
//! applied, the caller hands the keys [`bulk_apply`] reported
//! [`BulkOutcome::Tombstoned`] or [`BulkOutcome::Deleted`] to
//! [`reclaim_absent`], which unhooks and frees those still absent; no other
//! key of the table is visited.
//!
//! [`Worker::load`] fills a table no transaction has touched yet on a
//! running database — a workload's initial population — with the same
//! bottom-up build, under a TID of the worker's epoch, and logs it.

use silo_index::{BulkLoad, BulkLoadError};
use silo_tid::{Tid, TidWord};

use crate::database::{CommitWrites, Table, TableId};
use crate::record::Record;
use crate::txn::WriteEntry;
use crate::worker::Worker;

/// Rows [`Worker::load`] gives one TID, and hands the commit hook as one
/// transaction: the batch the loaders' transactions used to commit.
const LOAD_BATCH: usize = 512;

/// An empty table being filled bottom-up by [`bulk_load`].
#[derive(Debug)]
pub struct TableLoad<'t> {
    table: &'t Table,
    load: BulkLoad<'t>,
}

impl TableLoad<'_> {
    /// Appends one record holding `value` at `tid`. `key` must sort strictly
    /// after the key pushed before it; otherwise the push is refused and the
    /// load should be dropped, which leaves the table as it was.
    pub fn push(&mut self, key: &[u8], tid: Tid, value: &[u8]) -> Result<(), BulkLoadError> {
        let record = self
            .table
            .allocate_record(value, TidWord::new(tid, false, true, false));
        self.load.push(key, record as u64)
    }

    /// Makes every pushed record the table's contents at once. Refused with
    /// [`BulkLoadError::NotEmpty`] if a key reached the table meanwhile.
    pub fn publish(self) -> Result<(), BulkLoadError> {
        self.load.publish()
    }
}

/// Starts filling the empty `table` bottom-up from records pushed in key
/// order, each at its own TID (see [`TableLoad`]). Nothing is logged.
///
/// # Safety
///
/// Recovery-mode exclusivity, as for [`bulk_apply`]: no transactional access
/// to the database may be in flight. A record the load does not publish is
/// released immediately.
pub unsafe fn bulk_load(table: &Table) -> Result<TableLoad<'_>, BulkLoadError> {
    let load = table.tree().bulk_load(move |record| {
        // SAFETY: allocated by this load and never published.
        unsafe { table.release_record(record as *mut Record) }
    })?;
    Ok(TableLoad { table, load })
}

impl Worker {
    /// Fills the table `table`, which no transaction has touched, with
    /// `rows` in strictly ascending key order, building its index bottom-up
    /// outside the commit protocol.
    ///
    /// Records come from the worker's pool. The worker stays in one epoch
    /// from the first row to the publish, so every row carries a TID of that
    /// epoch, and the table's index changes from empty to full with one
    /// pointer store: no snapshot sees half of it, and a transaction that
    /// read the empty table fails node-set validation. With a commit hook
    /// installed, the rows reach it before the publish as committed writes
    /// of 512 rows per TID, so a logged population is recoverable like any
    /// other committed data.
    ///
    /// If the table holds a key, or the keys are unsorted or repeated, the
    /// load errors and the table stays as it was.
    pub fn load<K: AsRef<[u8]>, V: AsRef<[u8]>>(
        &mut self,
        table: TableId,
        rows: impl IntoIterator<Item = (K, V)>,
    ) -> Result<(), BulkLoadError> {
        let arc = self.database().table(table);
        let target: &Table = &arc;
        let mut load = target.tree().bulk_load(|record| {
            // SAFETY: allocated by this load and never published.
            unsafe { target.release_record(record as *mut Record) }
        })?;
        let (epoch, _) = self.epoch().refresh();
        let mut tid = Tid::ZERO;
        for (i, (key, value)) in rows.into_iter().enumerate() {
            if i % LOAD_BATCH == 0 {
                tid = self.tid_gen().generate(Tid::ZERO, epoch);
            }
            let record = self.alloc_record(value.as_ref(), TidWord::new(tid, false, true, false));
            load.push(key.as_ref(), record as u64)?;
        }
        if self.database().commit_hook().is_none() && self.history.is_none() {
            return load.publish();
        }
        let mut batch: Vec<WriteEntry> = Vec::with_capacity(LOAD_BATCH);
        let mut batch_tid = Tid::ZERO;
        load.publish_visiting(|key: &[u8], value: u64| {
            // SAFETY: allocated by this load and not yet published.
            let record = unsafe { &*(value as *const Record) };
            let tid = record.tid().load().tid();
            if tid != batch_tid && !batch.is_empty() {
                self.report_load_batch(batch_tid, &batch);
                batch.clear();
            }
            batch_tid = tid;
            record.read_consistent(&mut self.ctx.scratch);
            let value_bytes = std::mem::take(&mut self.ctx.scratch);
            batch.push(WriteEntry {
                table,
                key: self.ctx.copy_in(key),
                record: value as *mut Record,
                new_value: Some(self.ctx.copy_in(&value_bytes)),
                is_insert: false,
            });
            self.ctx.scratch = value_bytes;
        })?;
        if !batch.is_empty() {
            self.report_load_batch(batch_tid, &batch);
        }
        Ok(())
    }

    /// Hands one batch of loaded rows to the commit hook and the history
    /// recorder as a committed transaction at `tid`, then rewinds the arena
    /// holding its keys and values.
    fn report_load_batch(&mut self, tid: Tid, batch: &[WriteEntry]) {
        if let Some(hook) = self.database().commit_hook() {
            // SAFETY: the arena is rewound below, after the hook returned.
            hook.on_commit(self.id(), tid, unsafe { CommitWrites::new(batch) });
        }
        if let Some(history) = self.history.as_mut() {
            if history.begin_txn() {
                for entry in batch {
                    // SAFETY: as above.
                    history.record_write(entry.table, unsafe { entry.key.as_slice() }, false);
                }
                history.finish_txn(Some(tid), true);
            }
        }
        self.ctx.reset();
    }
}

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
                        // caller passes the key to [`reclaim_absent`] once all
                        // streams are applied, which frees it if it stays absent.
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

/// Unhooks each of `keys` whose record in `table` is still latest and
/// *absent* — a tombstone replay installed for a delete of an unseen key, or
/// a key whose recovered final action was a delete — and releases the record
/// (a slab record is kept for the next worker to register). A key that is
/// missing or present is left alone. Returns the number of keys reclaimed.
///
/// During normal operation the garbage collector performs this cleanup
/// lazily (a touching write revives or supersedes the record); after
/// recovery there are no workers yet, so without this a tombstone would stay
/// hooked until some future write happens to touch its key. Recovery passes
/// the keys its [`bulk_apply`] calls left [`BulkOutcome::Tombstoned`] or
/// [`BulkOutcome::Deleted`], so nothing else of the table is visited.
///
/// # Safety
///
/// Recovery-mode exclusivity, as for [`bulk_apply`]: no transactional or
/// concurrent bulk access to `table` may be in flight. Records and removed
/// index entries are released immediately, which is only sound under this
/// contract.
pub unsafe fn reclaim_absent(
    table: &Table,
    keys: impl IntoIterator<Item = impl AsRef<[u8]>>,
) -> u64 {
    let tree = table.tree();
    let mut reclaimed = 0u64;
    for key in keys {
        let key = key.as_ref();
        let Some(value) = tree.get(key) else { continue };
        let record = value as *mut Record;
        // SAFETY: exclusivity contract — the record is alive and no one else
        // can free it.
        let word = unsafe { (*record).tid().load() };
        if word.is_latest() && word.is_absent() {
            if let Some(removed) = tree.remove(key) {
                debug_assert_eq!(removed.value, value);
                // Exclusive access: no concurrent reader can still hold the
                // suffix or the record, so both free immediately.
                drop(removed);
                // SAFETY: unhooked above; exclusively ours.
                unsafe { table.release_record(record) };
                reclaimed += 1;
            }
        }
    }
    reclaimed
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::config::SiloConfig;
    use crate::database::Database;
    use crate::error::{Abort, AbortReason};

    fn rows(n: u32) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| (i.to_be_bytes().to_vec(), format!("v{i}").into_bytes()))
            .collect()
    }

    fn contents(db: &Arc<Database>, t: TableId) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut w = db.register_worker();
        let mut txn = w.begin();
        let all = txn.scan(t, b"", None, None).unwrap();
        txn.commit().unwrap();
        all
    }

    #[test]
    fn load_fills_an_empty_table_under_one_epoch() {
        let db = Database::open(SiloConfig::for_testing());
        let t = db.create_table("t").unwrap();
        let mut w = db.register_worker();
        w.load(t, rows(2_000)).unwrap();
        assert_eq!(contents(&db, t), rows(2_000));
        let table = db.table(t);
        let tids: Vec<Tid> = table
            .tree()
            .scan(b"", None, None)
            .entries
            .iter()
            // SAFETY: the table's records live as long as the database.
            .map(|&(_, r)| unsafe { (*(r as *const Record)).tid().load().tid() })
            .collect();
        assert!(tids.iter().all(|t| t.epoch() == tids[0].epoch()));
        let distinct: std::collections::BTreeSet<Tid> = tids.iter().copied().collect();
        assert_eq!(distinct.len(), 2_000usize.div_ceil(LOAD_BATCH));
    }

    #[test]
    fn load_refuses_a_non_empty_table_and_bad_order_and_changes_nothing() {
        let db = Database::open(SiloConfig::for_testing());
        let t = db.create_table("t").unwrap();
        let mut w = db.register_worker();
        let mut txn = w.begin();
        txn.insert(t, b"there", b"x").unwrap();
        txn.commit().unwrap();
        assert_eq!(w.load(t, rows(10)), Err(BulkLoadError::NotEmpty));
        assert_eq!(contents(&db, t), vec![(b"there".to_vec(), b"x".to_vec())]);

        let u = db.create_table("u").unwrap();
        let mut unsorted = rows(600);
        unsorted.swap(550, 551);
        assert_eq!(w.load(u, unsorted), Err(BulkLoadError::Unsorted));
        let mut repeated = rows(600);
        repeated[551] = repeated[550].clone();
        assert_eq!(w.load(u, repeated), Err(BulkLoadError::Repeated));
        assert!(contents(&db, u).is_empty());
        assert!(db.table(u).tree().is_empty());
        // The refused loads left the table usable, by a load too.
        w.load(u, rows(600)).unwrap();
        assert_eq!(contents(&db, u), rows(600));
    }

    #[test]
    fn a_transaction_that_read_the_empty_table_fails_node_validation() {
        let db = Database::open(SiloConfig::for_testing());
        let t = db.create_table("t").unwrap();
        let other = db.create_table("other").unwrap();
        let mut reader = db.register_worker();
        let mut loader = db.register_worker();
        let mut txn = reader.begin();
        assert_eq!(txn.read(t, &5u32.to_be_bytes()).unwrap(), None);
        txn.write(other, b"saw", b"nothing").unwrap();
        loader.load(t, rows(100)).unwrap();
        assert_eq!(txn.commit(), Err(Abort(AbortReason::NodeValidation)));

        let mut txn = reader.begin();
        assert!(txn.scan(t, b"", None, None).unwrap().len() == 100);
        txn.commit().unwrap();
    }

    #[test]
    fn a_later_write_to_a_loaded_row_commits_with_a_larger_tid() {
        let db = Database::open(SiloConfig::for_testing());
        let t = db.create_table("t").unwrap();
        let mut w = db.register_worker();
        w.load(t, rows(10)).unwrap();
        let record = db.table(t).tree().get(&3u32.to_be_bytes()).unwrap() as *const Record;
        // SAFETY: in-place overwrites keep the record alive.
        let loaded = unsafe { (*record).tid().load().tid() };
        let mut other = db.register_worker();
        let mut txn = other.begin();
        txn.write(t, &3u32.to_be_bytes(), b"new").unwrap();
        let tid = txn.commit().unwrap();
        assert!(tid > loaded);
        let mut txn = other.begin();
        assert_eq!(
            txn.read(t, &3u32.to_be_bytes()).unwrap(),
            Some(b"new".to_vec())
        );
        txn.commit().unwrap();
    }

    #[test]
    fn bulk_load_installs_records_at_their_own_tids() {
        let db = Database::open(SiloConfig::for_testing());
        let t = db.create_table("t").unwrap();
        let table = db.table(t);
        // SAFETY: single-threaded test, no transactions in flight.
        let mut load = unsafe { bulk_load(&table) }.unwrap();
        for (i, (key, value)) in rows(300).iter().enumerate() {
            load.push(key, Tid::new(3, i as u64), value).unwrap();
        }
        load.publish().unwrap();
        assert_eq!(contents(&db, t), rows(300));
        let record = table.tree().get(&7u32.to_be_bytes()).unwrap() as *const Record;
        // SAFETY: the table's records live as long as the database.
        assert_eq!(unsafe { (*record).tid().load().tid() }, Tid::new(3, 7));
        // SAFETY: as above.
        assert_eq!(
            unsafe { bulk_load(&table) }.err(),
            Some(BulkLoadError::NotEmpty)
        );
    }

    #[test]
    fn reclaim_absent_reclaims_tombstones_and_deleted_keys() {
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
            // A present, a repeated and a missing key are passed over.
            let keys = ["alive", "ghost", "gone", "ghost", "never"];
            assert_eq!(reclaim_absent(&table, keys), 2);
        }
        assert_eq!(table.tree().len(), 1);
        let mut w = db.register_worker();
        let mut txn = w.begin();
        assert_eq!(txn.read(t, b"alive").unwrap(), Some(b"v".to_vec()));
        assert_eq!(txn.read(t, b"ghost").unwrap(), None);
        assert_eq!(txn.read(t, b"gone").unwrap(), None);
        // The reclaimed keys are fully usable again.
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
