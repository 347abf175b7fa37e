//! Bulk-load paths: recovery (paper §4.10) and the initial population.
//!
//! Both fill an empty table bottom-up from rows in key order ([`bulk_load`]
//! over `silo_index::Tree::bulk_load`), outside the commit protocol.
//!
//! Recovery rebuilds a database from a checkpoint plus a log tail. Both
//! sources carry the commit TID of every record version, and there are no
//! concurrent transactions during recovery, so each table's records are
//! installed with their original TIDs. The recovery pipeline resolves the
//! sources before anything reaches a table: it sorts the tail by key, keeps
//! each key's largest TID ("log records for the same record must be applied
//! in TID order"), and merges that into the table's checkpoint run, so each
//! key is pushed once, with its final value, and a deleted key not at all.
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
/// Recovery-mode exclusivity: no transactional access to the database may
/// be in flight. A record the load does not publish is released
/// immediately.
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
    fn recovered_records_are_fully_transactional() {
        let db = Database::open(SiloConfig::for_testing());
        let t = db.create_table("t").unwrap();
        let table = db.table(t);
        // SAFETY: single-threaded test, no transactions in flight.
        let mut load = unsafe { bulk_load(&table) }.unwrap();
        for (i, (key, value)) in rows(100).iter().enumerate() {
            load.push(key, Tid::new(2, i as u64), value).unwrap();
        }
        load.publish().unwrap();
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
