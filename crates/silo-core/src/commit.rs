//! The Silo commit protocol (paper §4.4, Figure 2), and abort.
//!
//! [`Txn::commit`] runs three phases over the read-, write- and node-sets
//! that the operations of [`crate::txn`] built:
//!
//! 1. **Phase 1, `lock`.** Lock every write-set record, in a deterministic
//!    global order (the record's address), by acquiring its TID-word lock
//!    bit; then take a fenced snapshot of the global epoch. That snapshot is
//!    the transaction's *serialization point*.
//! 2. **Phase 2, `validate`.** Check the read-set (TID unchanged, still the
//!    latest version, not locked by another transaction), the write-set (a
//!    blind write's record not superseded) and the node-set (leaf versions
//!    unchanged). On failure release the locks and abort. On success choose
//!    the commit TID: the smallest TID that is larger than every TID
//!    observed, larger than the worker's previous TID, and in the epoch taken
//!    at the serialization point.
//! 3. **Phase 3, `install`.** Install the new record values (in place when
//!    allowed, otherwise as freshly allocated versions linked for snapshot
//!    readers), writing the new TID word and releasing each lock in a single
//!    atomic store.
//!
//! A transaction that wrote nothing skips Phase 1 (there is nothing to lock,
//! so nothing for the fences to order), validates, draws its TID the same
//! way, and is done: no Phase 3, no log record.
//!
//! After Phase 3 the durability hook ([`crate::CommitHook`]) gets the
//! write-set as a borrowed [`crate::CommitWrites`] view and serializes it
//! straight from the arena into the worker's log buffer, with no
//! intermediate clone of keys or values. Commit and abort both close the
//! transaction's recorded history.

use std::sync::atomic::{fence, Ordering};

use silo_tid::{Tid, TidWord};

use crate::database::{CommitWrites, TableId};
use crate::error::{Abort, AbortReason};
use crate::gc::Garbage;
use crate::record::{Record, RecordPtr};
use crate::txn::{Txn, WriteEntry};

/// What Phase 3 knows about the commit, the same for every write-set entry.
#[derive(Debug, Clone, Copy)]
struct CommitCtx {
    tid: Tid,
    /// The snapshot interval, in epochs.
    snap_k: u64,
    /// The commit epoch's snapshot epoch: versions this commit keeps for
    /// snapshot readers, and keys it deletes, are reclaimed after it.
    snap_epoch: u64,
}

impl CommitCtx {
    /// The TID word this commit installs: latest, unlocked, absent for a
    /// delete.
    fn word(&self, absent: bool) -> TidWord {
        TidWord::new(self.tid, false, true, absent)
    }

    /// Whether the version `old` describes belongs to this commit's
    /// snapshot, so that no snapshot reader can need it once it is replaced.
    fn same_snapshot(&self, old: TidWord) -> bool {
        silo_epoch::snap(old.tid().epoch(), self.snap_k) == self.snap_epoch
    }
}

impl Txn<'_> {
    /// Runs the commit protocol (Figure 2). On success returns the commit
    /// TID; on failure the transaction has aborted and released all locks.
    pub fn commit(mut self) -> Result<Tid, Abort> {
        let outcome = match self.poisoned {
            Some(reason) => Err(Abort(reason)),
            None => self.lock_validate_install(),
        };
        match outcome {
            Ok(tid) => {
                self.close_history(Some(tid));
                self.worker.stats.commits += 1;
            }
            Err(Abort(reason)) => self.abort_with(reason),
        }
        self.finished = true;
        outcome
    }

    /// Aborts the transaction explicitly.
    pub fn abort(mut self) {
        self.abort_with(AbortReason::UserRequested);
        self.finished = true;
    }

    /// The three phases, then the log hook.
    fn lock_validate_install(&mut self) -> Result<Tid, Abort> {
        // A read-only transaction (§4.4) has nothing to lock, install or
        // log: it takes its epoch, validates, and draws a TID so that its
        // worker's TIDs stay monotone. The fences of `lock` order the lock
        // acquisitions before the epoch load and the epoch load before the
        // validation loads; with no locks taken and no TID ever stored into
        // a record, the acquire load alone keeps the epoch at or before
        // validation, and `generate` never returns a TID below an observed
        // one whatever epoch it is given.
        let read_only = self.worker.ctx.write_set.is_empty();
        let epoch = if read_only {
            self.worker.database().epochs().global_epoch()
        } else {
            self.lock()
        };
        let tid = self.validate(epoch, read_only)?;
        if !read_only {
            self.install(tid, epoch);
            // The log record carries the TID and the table/key/value of
            // every modification (§4.10).
            if let Some(hook) = self.worker.database().commit_hook() {
                // SAFETY: the arena is rewound only when the transaction
                // finishes, after the hook has returned.
                let writes = unsafe { CommitWrites::new(&self.worker.ctx.write_set.entries) };
                hook.on_commit(self.worker.id(), tid, writes);
            }
        }
        Ok(tid)
    }

    /// Phase 1: locks every write-set record and returns the epoch read at
    /// the serialization point.
    fn lock(&mut self) -> u64 {
        // Lock in a deterministic global order (record addresses) to avoid
        // deadlock among committing transactions. The unstable sort never
        // allocates (a stable sort's merge buffer would). It invalidates the
        // write-set's index, which nothing consults from here on.
        let write_set = &mut self.worker.ctx.write_set.entries;
        write_set.sort_unstable_by_key(|w| w.record as usize);
        debug_assert!(write_set.windows(2).all(|w| w[0].record != w[1].record));
        for entry in write_set.iter() {
            // SAFETY: write-set records are pinned by our epoch.
            unsafe { (*entry.record).tid().lock() };
        }
        self.locks_held = true;

        // The fenced load of the global epoch is the serialization point.
        // On TSO hardware these are compiler fences; `SeqCst` fences keep the
        // implementation correct on weaker architectures too.
        fence(Ordering::SeqCst);
        let epoch = self.worker.database().epochs().global_epoch();
        fence(Ordering::SeqCst);
        epoch
    }

    /// Phase 2: validates the read-, write- and node-sets, then draws the
    /// commit TID for `epoch`.
    fn validate(&mut self, epoch: u64, read_only: bool) -> Result<Tid, Abort> {
        let write_set = &self.worker.ctx.write_set.entries;
        let mut max_observed = Tid::ZERO;
        for entry in &self.worker.ctx.read_set {
            // SAFETY: read-set records are pinned by our epoch.
            let current = unsafe { (*entry.record).tid().load() };
            // A lock bit is excused only when it is ours; the write set is
            // searched only for the reads that find one.
            let in_write_set = || {
                write_set
                    .binary_search_by_key(&(entry.record as usize), |w| w.record as usize)
                    .is_ok()
            };
            if current.tid() != entry.observed.tid()
                || !current.is_latest()
                || (current.is_locked() && !in_write_set())
            {
                return Err(Abort(AbortReason::ReadValidation));
            }
            max_observed = max_observed.max(current.tid());
        }
        for entry in write_set {
            // SAFETY: we hold the lock on every write-set record.
            let current = unsafe { (*entry.record).tid().load() };
            if !entry.is_insert && !current.is_latest() {
                // A blind write raced with a concurrent supersession.
                return Err(Abort(AbortReason::ReadValidation));
            }
            max_observed = max_observed.max(current.tid());
        }
        for i in 0..self.worker.ctx.node_set.len() {
            // Copied out: `table_ptr` may fill the worker's table cache.
            let entry = self.worker.ctx.node_set.entries[i];
            let table_ptr = self.worker.table_ptr(entry.table);
            // SAFETY: the worker's table cache keeps the table alive.
            let table = unsafe { &*table_ptr };
            if table.tree().node_version(entry.node) != entry.version {
                return Err(Abort(AbortReason::NodeValidation));
            }
        }

        if self.worker.config().global_tid {
            return Ok(self
                .worker
                .database()
                .global_tid_generator()
                .generate(max_observed, epoch));
        }
        let mut tid_epoch = epoch;
        if read_only {
            // A worker has 2^21 TIDs per epoch, and a loop of empty
            // transactions can use them up. A read-only commit holds no
            // locks and will not touch a record again, so it waits for the
            // next epoch rather than overflow. It refreshes rather than just
            // reads `E` so that its own `e_w` cannot hold the advance back.
            while self
                .worker
                .tid_gen()
                .last()
                .next_exhausts_epoch(max_observed, tid_epoch)
            {
                std::thread::yield_now();
                (tid_epoch, _) = self.worker.epoch().refresh();
            }
        }
        Ok(self.worker.tid_gen().generate(max_observed, tid_epoch))
    }

    /// Phase 3: installs every write-set entry with the commit `tid` and
    /// releases its lock.
    ///
    /// One decision per entry. The version an entry replaces is kept for
    /// snapshot readers when it is not the transaction's own insert
    /// placeholder, snapshots are on, and it belongs to an earlier snapshot
    /// than the commit. The new state then goes into the record in place
    /// unless the old version is kept; a new value must also fit, and be an
    /// insert's (no reader has seen a placeholder's value) or be allowed by
    /// `overwrite_in_place`. Otherwise a freshly allocated version replaces
    /// the record. A delete leaves an absent record and schedules its
    /// unhook (§4.5 "Deletes", §4.9 "Deletions").
    fn install(&mut self, tid: Tid, epoch: u64) {
        let config = self.worker.config();
        let overwrite_in_place = config.overwrite_in_place;
        let enable_snapshots = config.enable_snapshots;
        let snap_k = config.epoch.snapshot_interval_epochs;
        let at = CommitCtx {
            tid,
            snap_k,
            snap_epoch: silo_epoch::snap(epoch, snap_k),
        };
        for i in 0..self.worker.ctx.write_set.len() {
            // Copied out (the entry is plain old data), so no borrow of the
            // write-set is held across the `&mut self` calls below.
            let WriteEntry {
                table,
                key,
                record,
                new_value,
                is_insert,
            } = self.worker.ctx.write_set.entries[i];
            // SAFETY: we hold the record's lock and our epoch pins it; the
            // arena slices are valid until the transaction finishes.
            let (rec, key, value) =
                unsafe { (&*record, key.as_slice(), new_value.map(|v| v.as_slice())) };
            let keep_old =
                !is_insert && enable_snapshots && !at.same_snapshot(rec.tid().load_relaxed());
            let in_place = !keep_old
                && value.map_or(true, |v| rec.fits(v) && (is_insert || overwrite_in_place));
            let head = if in_place {
                if let Some(value) = value {
                    // SAFETY: lock held, fits checked.
                    unsafe { rec.overwrite(value) };
                    self.worker.stats.inplace_overwrites += 1;
                }
                rec.tid().store_and_unlock(at.word(value.is_none()));
                record
            } else {
                self.install_new_version(at, table, key, record, value, keep_old)
            };
            if value.is_none() {
                // The Unhook garbage outlives the transaction, so the key is
                // copied out of the arena: deletes are the one write kind
                // that pays an owned-key allocation.
                self.worker.defer_snapshot(
                    at.snap_epoch,
                    Garbage::Unhook {
                        table,
                        key: key.to_vec(),
                        record: RecordPtr(head),
                    },
                );
            }
        }
        // Each entry's TID store released its lock (§4.4 Phase 3).
        self.locks_held = false;
    }

    /// Installs a freshly allocated record holding `value` (absent for a
    /// delete) as the new latest version of `key`, marks `old_record`
    /// superseded, releases its lock, and schedules it for reclamation:
    /// after the snapshot epoch when `keep_old` links it for snapshot
    /// readers, after the tree epoch otherwise. Returns the new record.
    fn install_new_version(
        &mut self,
        at: CommitCtx,
        table: TableId,
        key: &[u8],
        old_record: *mut Record,
        value: Option<&[u8]>,
        keep_old: bool,
    ) -> *mut Record {
        let new_record = self
            .worker
            .alloc_record(value.unwrap_or_default(), at.word(value.is_none()));
        // SAFETY: we hold the old record's lock; the new record is freshly
        // allocated and not yet published.
        let (old, new) = unsafe { (&*old_record, &*new_record) };
        // The version snapshot readers fall back to: the old record when it
        // is kept for them, else whatever the old record fell back to — as
        // an in-place overwrite would have left it.
        new.set_prev(if keep_old { old_record } else { old.prev() });
        let table_ptr = self.worker.table_ptr(table);
        // SAFETY: the worker's table cache keeps the table alive.
        let table = unsafe { &*table_ptr };
        let updated = table.tree().update_value(key, new_record as u64);
        debug_assert!(updated, "write-set key vanished from the index");
        // Mark the old version superseded and release the lock. Readers that
        // observe the cleared latest bit retry through the index and find the
        // new record.
        let old_word = old.tid().load_relaxed();
        old.tid()
            .store_and_unlock(old_word.with_latest(false).with_locked(false));
        if keep_old {
            self.worker
                .defer_snapshot(at.snap_epoch, Garbage::Record(RecordPtr(old_record)));
        } else {
            // The reclamation epoch is the global epoch read *after* the
            // unlink, not the commit epoch read in Phase 1: the epoch may
            // have advanced in between, and a reader that began in the new
            // epoch and fetched the old pointer just before the unlink is
            // only held back by an epoch at least its own.
            fence(Ordering::SeqCst);
            let unlinked_in = self.worker.database().epochs().global_epoch();
            self.worker
                .defer_tree(unlinked_in, Garbage::Record(RecordPtr(old_record)));
        }
        self.worker.stats.new_versions += 1;
        new_record
    }

    /// Rolls the transaction back: releases the Phase 1 locks it holds,
    /// schedules its insert placeholders for cleanup, closes its history and
    /// counts the abort.
    fn abort_with(&mut self, reason: AbortReason) {
        // Release the write-set locks if (and only if) Phase 1 acquired them:
        // a lock bit observed on these records in any other situation belongs
        // to a different committing transaction and must not be touched.
        if self.locks_held {
            for entry in &self.worker.ctx.write_set.entries {
                // SAFETY: write-set records are pinned by our epoch; Phase 1
                // locked each of them and Phase 3 did not run.
                unsafe { (*entry.record).tid().unlock() };
            }
            self.locks_held = false;
        }
        // Register this transaction's absent placeholders for cleanup (§4.5:
        // "If the commit fails, the commit protocol registers the absent
        // record for future garbage collection.").
        let snap_epoch = {
            let epochs = self.worker.database().epochs();
            epochs.snapshot_of(epochs.global_epoch())
        };
        for i in 0..self.worker.ctx.placeholders.len() {
            let (table, key, record) = self.worker.ctx.placeholders[i];
            // The Unhook garbage outlives the transaction; copy the key out
            // of the arena.
            // SAFETY: arena slices are valid until the txn finishes.
            let key = unsafe { key.as_slice() }.to_vec();
            self.worker
                .defer_snapshot(snap_epoch, Garbage::Unhook { table, key, record });
        }
        self.worker.ctx.placeholders.clear();
        self.close_history(None);
        self.worker.stats.aborts += 1;
        self.worker.stats.abort_reasons.record(reason);
    }

    /// Closes the recorded transaction, if this one is recording: its writes
    /// (keys still alive in the arena), then its commit TID, or `None` for
    /// an abort, whose attempted writes are kept for diagnostics (the
    /// checker ignores aborted transactions). Reads were recorded as they
    /// happened.
    fn close_history(&mut self, tid: Option<Tid>) {
        if !std::mem::take(&mut self.recording) {
            return;
        }
        if let Some(history) = self.worker.history.as_mut() {
            for entry in &self.worker.ctx.write_set.entries {
                // SAFETY: arena slices are valid until the txn finishes.
                let key = unsafe { entry.key.as_slice() };
                history.record_write(entry.table, key, entry.new_value.is_none());
            }
            history.finish_txn(tid, tid.is_some());
        }
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.abort_with(self.poisoned.unwrap_or(AbortReason::UserRequested));
        }
        // Clear the context (retaining capacity) for the next transaction.
        self.worker.ctx.reset();
        self.worker.stats.arena_chunk_allocs = self.worker.ctx.arena_chunk_allocs();
    }
}
