//! Per-thread worker state: epochs, TID generation, garbage collection and
//! the record allocation pool.

use std::sync::Arc;

use silo_check::HistorySession;
use silo_epoch::WorkerEpochHandle;
use silo_index::ScanScratch;
use silo_tid::{TidGenerator, TidWord};

use crate::config::SiloConfig;
use crate::database::{Database, Table, TableId};
use crate::gc::{Garbage, GarbageList, RecordPool};
use crate::record::{Record, RecordPtr};
use crate::snapshot::SnapshotTxn;
use crate::stats::WorkerStats;
use crate::txn::{Txn, TxnContext};

/// A database worker. One worker is created per worker thread (paper §3:
/// "we run one worker thread per physical core"); it owns the thread-local
/// state the engine needs — the local epochs, the decentralized TID
/// generator, the garbage lists and the record allocation pool — so running
/// transactions requires no shared-memory writes beyond those of the commit
/// protocol itself.
pub struct Worker {
    db: Arc<Database>,
    epoch: WorkerEpochHandle,
    tid_gen: TidGenerator,
    pub(crate) pool: RecordPool,
    pub(crate) snapshot_garbage: GarbageList,
    pub(crate) tree_garbage: GarbageList,
    pub(crate) stats: WorkerStats,
    /// The reusable transaction context (read/write/node sets, arena), used
    /// in place by the [`Txn`] borrowing this worker and cleared when it
    /// finishes — so steady-state transactions allocate nothing.
    pub(crate) ctx: TxnContext,
    /// The index scan's working memory (frame stack, key buffer, visited
    /// leaves), reused by every `scan_with` of this worker's transactions.
    pub(crate) scan: ScanScratch,
    /// Reusable buffer for garbage ready to be reclaimed, so GC rounds do not
    /// allocate either.
    gc_scratch: Vec<(u64, Garbage)>,
    table_cache: Vec<Option<Arc<Table>>>,
    /// The global epoch this worker's last collector round ran in. A new
    /// round runs at the first transaction boundary that sees `E` move on.
    gc_epoch: u64,
    /// The worker's history-recording handle, present when the database had a
    /// recorder installed at registration time. All recording goes to this
    /// worker-local buffer; the shared recorder is touched only by the
    /// per-begin enabled check and the flush on drop.
    pub(crate) history: Option<HistorySession>,
}

impl std::fmt::Debug for Worker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker")
            .field("id", &self.id())
            .field("commits", &self.stats.commits)
            .field("aborts", &self.stats.aborts)
            .finish_non_exhaustive()
    }
}

impl Worker {
    pub(crate) fn new(db: Arc<Database>) -> Self {
        let epoch = db.epochs().register_worker();
        let pool = RecordPool::new(db.record_slab().cloned());
        let history = db
            .history_recorder()
            .map(|r| HistorySession::new(Arc::clone(r)));
        let gc_epoch = db.epochs().global_epoch();
        Worker {
            db,
            epoch,
            tid_gen: TidGenerator::new(),
            pool,
            snapshot_garbage: GarbageList::default(),
            tree_garbage: GarbageList::default(),
            stats: WorkerStats::default(),
            ctx: TxnContext::default(),
            scan: ScanScratch::default(),
            gc_scratch: Vec::new(),
            table_cache: Vec::new(),
            gc_epoch,
            history,
        }
    }

    /// The worker's id: its epoch slot, unique among the database's live
    /// workers and below [`crate::MAX_WORKERS`]. A later worker may get the
    /// same id once this one drops.
    pub fn id(&self) -> usize {
        self.epoch.id()
    }

    /// The database this worker belongs to.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The engine configuration (convenience accessor).
    pub fn config(&self) -> &SiloConfig {
        self.db.config()
    }

    /// This worker's execution statistics.
    pub fn stats(&self) -> &WorkerStats {
        &self.stats
    }

    /// The worker's epoch handle (used by the commit protocol, the snapshot
    /// scan hook and tests).
    pub(crate) fn epoch(&self) -> &WorkerEpochHandle {
        &self.epoch
    }

    /// The decentralized TID generator.
    pub(crate) fn tid_gen(&mut self) -> &mut TidGenerator {
        &mut self.tid_gen
    }

    /// Resolves a table id to a cached `Arc<Table>` reference, avoiding both
    /// the catalog lock and an `Arc` refcount bump on the hot path.
    pub(crate) fn table_ptr(&mut self, id: TableId) -> *const Table {
        let idx = id as usize;
        if idx >= self.table_cache.len() {
            self.table_cache.resize(idx + 1, None);
        }
        if self.table_cache[idx].is_none() {
            self.table_cache[idx] = Some(self.db.table(id));
        }
        Arc::as_ptr(self.table_cache[idx].as_ref().expect("just populated"))
    }

    /// Starts a new read/write transaction.
    ///
    /// Refreshes the worker's local epochs (`e_w ← E`, `se_w ← SE`) and, when
    /// `E` has advanced since the worker's last collector round, runs one
    /// "between requests" as the paper describes: at most one round per
    /// epoch, however many transactions the epoch holds.
    pub fn begin(&mut self) -> Txn<'_> {
        let (epoch, _) = self.epoch.refresh();
        self.collect_if_epoch_moved(epoch);
        Txn::new(self)
    }

    /// Starts a read-only snapshot transaction on the most recent snapshot
    /// epoch (§4.9). Snapshot transactions never abort. Runs a collector
    /// round on a new epoch, as [`Worker::begin`] does.
    pub fn begin_snapshot(&mut self) -> SnapshotTxn<'_> {
        let (epoch, sew) = self.epoch.refresh();
        self.collect_if_epoch_moved(epoch);
        let snapshot_epoch = if self.db.config().enable_snapshots {
            sew
        } else {
            // Snapshots disabled: fall back to reading the latest committed
            // versions (the chain head always qualifies).
            u64::MAX
        };
        SnapshotTxn::new(self, snapshot_epoch)
    }

    /// Starts a read-only snapshot transaction pinned to an *explicit*
    /// snapshot epoch (at most the current global `SE`; larger values are
    /// clamped).
    ///
    /// This is the checkpointer's entry point (§4.9 applied to §4.10's
    /// checkpoints): several workers can walk different tables of the *same*
    /// consistent snapshot concurrently, and a long walk can be split into
    /// many short snapshot transactions — each `begin_snapshot_at` re-pins
    /// `se_w` to the chosen epoch (so the versions that snapshot needs are
    /// never reclaimed mid-walk) while refreshing `e_w` (so the walk never
    /// stalls global epoch advancement). A collector round on a new epoch
    /// runs under that pin, so it frees nothing the snapshot can reach.
    pub fn begin_snapshot_at(&mut self, snapshot_epoch: u64) -> SnapshotTxn<'_> {
        let snapshot_epoch = snapshot_epoch.min(self.db.epochs().global_snapshot_epoch());
        if self.db.config().enable_snapshots {
            let epoch = self.epoch.refresh_pinned(snapshot_epoch);
            self.collect_if_epoch_moved(epoch);
            SnapshotTxn::new(self, snapshot_epoch)
        } else {
            // Snapshots disabled: no old versions are retained, so the best
            // available point is the latest committed state.
            let (epoch, _) = self.epoch.refresh();
            self.collect_if_epoch_moved(epoch);
            SnapshotTxn::new(self, u64::MAX)
        }
    }

    /// Marks the worker quiescent (outside any transaction); it no longer
    /// delays epoch advancement or garbage reclamation.
    pub fn quiesce(&self) {
        self.epoch.quiesce();
    }

    /// Hands this worker's buffered history to the database's recorder (a
    /// no-op when no recorder is installed). Dropping the worker flushes
    /// implicitly; long-lived workers call this so checkers see a complete
    /// history mid-run.
    pub fn flush_history(&mut self) {
        if let Some(history) = &mut self.history {
            history.flush();
        }
    }

    /// Runs a collector round if `E` — just refreshed to `epoch` — moved
    /// since the last one. The reclamation epochs move with `E`, and
    /// `try_advance` keeps `E − e_w ≤ 1`, so an item is freed at most one
    /// epoch after it became ready.
    fn collect_if_epoch_moved(&mut self, epoch: u64) {
        if epoch != self.gc_epoch && self.db.config().enable_gc {
            self.collect_round(epoch);
        }
    }

    /// Allocates a record (through the pool when enabled).
    pub(crate) fn alloc_record(&mut self, data: &[u8], word: TidWord) -> *mut Record {
        self.alloc_record_sized(data, word, 0)
    }

    /// Allocates a record with a minimum data capacity (used for insert
    /// placeholders that will receive their real value at commit time).
    pub(crate) fn alloc_record_sized(
        &mut self,
        data: &[u8],
        word: TidWord,
        min_capacity: usize,
    ) -> *mut Record {
        let ptr = self.pool.allocate(data, word, min_capacity);
        self.stats.pool_hits = self.pool.hits;
        self.stats.pool_misses = self.pool.misses;
        ptr
    }

    /// Registers garbage produced by a committed transaction.
    pub(crate) fn defer_snapshot(&mut self, epoch: u64, garbage: Garbage) {
        if self.db.config().enable_gc {
            self.snapshot_garbage.push(epoch, garbage);
        }
    }

    /// Registers garbage governed by the tree reclamation epoch.
    pub(crate) fn defer_tree(&mut self, epoch: u64, garbage: Garbage) {
        if self.db.config().enable_gc {
            self.tree_garbage.push(epoch, garbage);
        }
    }

    /// Number of garbage items currently awaiting reclamation (diagnostics).
    pub fn pending_garbage(&self) -> usize {
        self.snapshot_garbage.pending() + self.tree_garbage.pending()
    }

    /// Runs one round of epoch-based reclamation (paper §4.8, §4.9).
    ///
    /// * Items in the snapshot list whose epoch `≤` the snapshot reclamation
    ///   epoch are processed: superseded record versions are freed (or
    ///   recycled into the pool) and deleted keys are unhooked from their
    ///   trees, with the unhooked memory deferred again to the tree list.
    /// * Items in the tree list whose epoch `≤` the tree reclamation epoch
    ///   are freed.
    ///
    /// Both lists are in epoch order, so a round stops at the first item
    /// that is not ready: it costs what it frees. Transaction boundaries run
    /// one automatically whenever `E` has advanced; call this directly to
    /// reclaim without starting a transaction (e.g. before dropping a
    /// worker).
    pub fn collect_garbage(&mut self) {
        if self.db.config().enable_gc {
            // Pin the current epoch for the duration of the collection: the
            // unhook path reads tree state and record words, which is only
            // safe while this worker is non-quiescent (otherwise another
            // worker's reclamation could free them mid-inspection). The pin
            // lasts until the worker's next refresh or `quiesce`.
            let (epoch, _) = self.epoch.refresh();
            self.collect_round(epoch);
        }
    }

    /// One collector round on a worker already pinned at `epoch`.
    fn collect_round(&mut self, epoch: u64) {
        self.gc_epoch = epoch;
        self.stats.gc_rounds += 1;
        let snapshot_reclaim = self.db.epochs().snapshot_reclamation_epoch();
        let tree_reclaim = self.db.epochs().tree_reclamation_epoch();

        // The ready items are drained into a reusable buffer (taken while
        // processing, because the unhook path pushes new garbage) so a GC
        // round performs no heap allocation in steady state. Both lists'
        // ready prefixes are taken up front, snapshot list first: what an
        // unhook below pushes to the tree list is tagged with the current
        // epoch, which `tree_reclaim` (`min e_w − 1`) has not reached.
        let mut ready = std::mem::take(&mut self.gc_scratch);
        ready.clear();
        self.snapshot_garbage
            .take_ready_into(snapshot_reclaim, &mut ready);
        self.tree_garbage.take_ready_into(tree_reclaim, &mut ready);
        for (_, garbage) in ready.drain(..) {
            match garbage {
                Garbage::Record(ptr) => {
                    self.stats.records_reclaimed += 1;
                    // SAFETY: the reclamation epoch of the record's list
                    // passed, so no transaction (snapshot or regular) can
                    // still reach this superseded or unhooked version.
                    unsafe { self.pool.recycle(ptr) };
                }
                Garbage::TreeKey(entry) => drop(entry),
                Garbage::Unhook { table, key, record } => {
                    self.unhook_deleted_key(table, key, record, epoch);
                }
            }
        }

        self.gc_scratch = ready;
    }

    /// Stage-two cleanup for a deleted key (§4.9): if the absent record is
    /// still the latest version, remove the key from the index and defer the
    /// record (and the removed leaf key buffer) to the tree reclamation
    /// epoch. If it was superseded by a later insert, do nothing — the
    /// inserting transaction reused the record.
    ///
    /// The record pointer carried by an `Unhook` entry must **not** be
    /// dereferenced before it is validated through the index: a concurrent
    /// insert may have revived the absent record and a later update may have
    /// superseded it, in which case the superseding transaction owns its
    /// reclamation and may already have freed (or recycled) the memory. So
    /// the check order is: (1) the index still maps `key` to this exact
    /// record — our non-quiescent epoch pin then guarantees the record is
    /// alive, because any supersession after the lookup defers reclamation
    /// past our pin; (2) the record's lock bit is acquired; (3) the word is
    /// still latest + absent. Only then is the key unhooked. Either we lock
    /// first — then we also clear the latest bit, so a reviver's Phase 2
    /// aborts — or the reviver locks first and we skip this round.
    fn unhook_deleted_key(
        &mut self,
        table_id: TableId,
        key: Vec<u8>,
        record: RecordPtr,
        epoch: u64,
    ) {
        let table_ptr = self.table_ptr(table_id);
        // SAFETY: the table cache keeps the Arc alive for the worker's
        // lifetime.
        let table = unsafe { &*table_ptr };
        if table.tree().get(&key) != Some(record.0 as u64) {
            // The key no longer maps to this record (or is gone entirely): a
            // later insert superseded it, and that transaction's garbage
            // registration owns the record now. The pointer may dangle —
            // do not touch it.
            return;
        }
        // SAFETY: the index maps `key` to this record and our epoch pin is
        // non-quiescent, so the record cannot have been reclaimed.
        let tid = unsafe { (*record.0).tid() };
        if !tid.try_lock() {
            // A committing transaction holds the record; try again once the
            // snapshot reclamation epoch passes this round's snapshot epoch.
            // `snap(epoch)` is at least every epoch already in the list (all
            // registered by commits and aborts no later than `epoch`), which
            // keeps the list in order.
            let retry_at = self.db.epochs().snapshot_of(epoch);
            self.snapshot_garbage.push(
                retry_at,
                Garbage::Unhook {
                    table: table_id,
                    key,
                    record,
                },
            );
            return;
        }
        let word = tid.load();
        if !word.is_latest() || !word.is_absent() {
            // Revived by a later insert (still the index head, so it is the
            // live record): nothing to clean up.
            tid.unlock();
            return;
        }
        // Make the record unrevivable before touching the index, so any
        // transaction that still holds a pointer to it fails validation.
        tid.store_and_unlock(word.with_latest(false).with_locked(false));

        // Holding the record's lock (and having cleared `latest`) excludes
        // every path that replaces the index value (`install_new_version`
        // runs under the old record's lock), so the mapping is still ours.
        let removed = table.tree().remove(&key);
        // Reclaim under the epoch read *after* the unlink: `epoch` was read
        // when the round began, the global epoch may have advanced
        // since, and a reader that began in the new epoch and reached the
        // record just before the removal is only held back by an epoch at
        // least its own.
        std::sync::atomic::fence(std::sync::atomic::Ordering::SeqCst);
        let unlinked_in = self.db.epochs().global_epoch();
        if let Some(removed) = removed {
            self.tree_garbage
                .push(unlinked_in, Garbage::TreeKey(removed));
        }
        self.tree_garbage.push(unlinked_in, Garbage::Record(record));
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Do not free pending garbage here: superseded versions are still
        // reachable through the live records' previous-version chains and
        // absent records are still referenced by the index, so the Database's
        // drop (which walks the trees) remains the single owner of anything
        // still attached to the tree. A pending slab record goes back with
        // the database's record slab; one from the global allocator (no
        // `+Allocator`, or larger than every size class) is leaked rather
        // than risk a double free. The pool hands its records to the
        // database as it drops.
        self.quiesce();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SiloConfig;

    #[test]
    fn worker_has_unique_ids_and_table_cache() {
        let db = Database::open(SiloConfig::for_testing());
        let t = db.create_table("t").unwrap();
        let mut w = db.register_worker();
        let p1 = w.table_ptr(t);
        let p2 = w.table_ptr(t);
        assert_eq!(p1, p2);
        // SAFETY: cache keeps the table alive.
        assert_eq!(unsafe { (*p1).name() }, "t");
    }

    #[test]
    fn gc_disabled_ignores_registrations() {
        let db = Database::open(SiloConfig::for_testing().without_gc());
        let mut w = db.register_worker();
        w.defer_tree(1, Garbage::Record(RecordPtr::null()));
        assert_eq!(w.pending_garbage(), 0);
        w.collect_garbage();
    }

    /// Commits `key = value` as a new record version (the database never
    /// overwrites in place), so the version it replaces becomes garbage.
    fn put(w: &mut Worker, t: TableId, key: &[u8], value: &[u8]) {
        let mut txn = w.begin();
        txn.write(t, key, value).unwrap();
        txn.commit().unwrap();
    }

    fn new_versions_db() -> Arc<Database> {
        Database::open(SiloConfig::for_testing().with_overwrite_in_place(false))
    }

    #[test]
    fn collector_runs_once_per_epoch_not_per_transaction() {
        let db = new_versions_db();
        let t = db.create_table("t").unwrap();
        let mut w = db.register_worker();
        put(&mut w, t, b"k", b"v0");
        put(&mut w, t, b"k", b"v1");
        let pending = w.pending_garbage();
        assert_eq!(pending, 1, "the superseded version awaits reclamation");

        let rounds = w.stats().gc_rounds;
        for _ in 0..10_000 {
            w.begin().commit().unwrap();
        }
        assert_eq!(w.stats().gc_rounds, rounds, "no round within one epoch");
        assert_eq!(w.pending_garbage(), pending);

        // The worker is at E, so the advance is allowed without quiescing.
        let e = db.epochs().global_epoch();
        assert_eq!(db.epochs().try_advance(), e + 1);
        for _ in 0..100 {
            w.begin().commit().unwrap();
        }
        assert_eq!(w.stats().gc_rounds, rounds + 1, "one round per new epoch");
    }

    #[test]
    fn a_worker_in_the_unlink_epoch_keeps_the_version_out_of_the_pool() {
        let db = new_versions_db();
        let t = db.create_table("t").unwrap();
        let mut writer = db.register_worker();
        let mut reader = db.register_worker();
        put(&mut writer, t, b"k", b"v0");
        let unlinked_in = db.epochs().global_epoch();

        // The reader holds the record the writer is about to supersede.
        let mut reading = reader.begin();
        assert_eq!(reading.read(t, b"k").unwrap(), Some(b"v0".to_vec()));
        put(&mut writer, t, b"k", b"v1");
        assert_eq!(writer.pending_garbage(), 1);

        // E moves on, but the reader is still in the unlink epoch: the
        // writer's round must not free the version.
        assert_eq!(db.epochs().try_advance(), unlinked_in + 1);
        let rounds = writer.stats().gc_rounds;
        writer.begin().commit().unwrap();
        assert_eq!(writer.stats().gc_rounds, rounds + 1);
        assert_eq!(writer.pending_garbage(), 1);
        assert_eq!(writer.stats().records_reclaimed, 0);
        assert_eq!(writer.pool.pooled(), 0);

        // Once the reader has left the epoch, the next epoch's round frees
        // it into the writer's pool.
        drop(reading);
        reader.quiesce();
        assert_eq!(db.epochs().try_advance(), unlinked_in + 2);
        writer.begin().commit().unwrap();
        assert_eq!(writer.pending_garbage(), 0);
        assert_eq!(writer.stats().records_reclaimed, 1);
        assert_eq!(writer.pool.pooled(), 1);
    }

    #[test]
    fn quiesce_releases_epoch_pin() {
        let db = Database::open(SiloConfig::for_testing());
        let w = db.register_worker();
        let _ = w.epoch().refresh();
        assert_ne!(w.epoch().local_epoch(), silo_epoch::QUIESCENT);
        w.quiesce();
        assert_eq!(w.epoch().local_epoch(), silo_epoch::QUIESCENT);
    }
}
