//! Serializable read/write transactions and the Silo commit protocol
//! (paper §4.4–§4.7, Figure 2).
//!
//! A transaction tracks, in worker-local storage:
//!
//! * a **read-set**: every record it read, with the TID word observed at the
//!   time of the access;
//! * a **write-set**: the new state of every record it modified (inserts,
//!   updates and deletes);
//! * a **node-set**: the index leaves whose *membership* the transaction
//!   depends on — leaves examined by range scans and leaves that proved a key
//!   absent — with the version observed at the time (§4.6, phantom
//!   protection).
//!
//! All of that state lives in a [`TxnContext`] owned by the [`Worker`] and
//! *reused* across transactions: the transaction works on its worker's
//! context in place — it holds the worker exclusively for as long as it
//! lives — and clears it (retaining capacity) when it finishes. Write-set
//! keys and values are copied into the context's bump [`Arena`] rather than
//! individually heap-allocated. Together with the worker's record pool this
//! makes the steady-state hot path allocation-free, which is the point of
//! the paper's per-core memory pools (§4.8).
//!
//! **Every operation costs the same however large the transaction is.** The
//! write-set holds one entry per `(table, key)` and the node-set one per
//! `(table, leaf)`; each is an [`IndexedSet`]: scanned while it has a handful
//! of entries, looked up through a retained hash index beyond that. So
//! read-your-writes, the duplicate check of an insert, a repeat observation
//! of a leaf and the §4.6 node-set fix-up are all O(1), and a transaction of
//! a thousand writes pays per write what one of ten does.
//!
//! **The read memo.** A read-modify-write reads a key and then writes it;
//! the write needs the record the read found, not a second descent. The
//! context therefore remembers what the *most recent point read* found —
//! `(table, key, record, observed TID word)` — under one invariant: the memo
//! is `Some` only if the transaction's latest read, point read or scan, was
//! a point read that found a record; it then holds that read's key, record
//! and observed word, and the read-set holds the same observation. Every
//! point read overwrites or empties it, every scan empties it, and it is
//! cleared with the rest of the context, so it never outlives its
//! transaction. `write`/`update`/`delete` of the remembered key
//! (when the write-set has no entry for it) take the record from the memo;
//! validation of that read is already the read-set's job.
//!
//! Commit runs the three-phase protocol of Figure 2:
//!
//! 1. **Phase 1** — lock every write-set record (in a deterministic global
//!    order: the record's address) by acquiring its TID-word lock bit, then
//!    take a fenced snapshot of the global epoch. That snapshot is the
//!    transaction's *serialization point*.
//! 2. **Phase 2** — validate the read-set (TID unchanged, still the latest
//!    version, not locked by another transaction) and the node-set (leaf
//!    versions unchanged). On failure release the locks and abort. On success
//!    choose the commit TID: the smallest TID that is larger than every TID
//!    observed, larger than the worker's previous TID, and in the epoch taken
//!    at the serialization point.
//!
//!    A transaction that wrote nothing skips Phase 1 (there is nothing to
//!    lock, so nothing for the fences to order), validates, draws its TID
//!    the same way, and is done: no Phase 3, no log record.
//! 3. **Phase 3** — install the new record values (in place when allowed,
//!    otherwise as freshly allocated versions linked for snapshot readers),
//!    writing the new TID word and releasing each lock in a single atomic
//!    store. The durability hook then serializes the write-set straight from
//!    the arena-backed entries into the worker's log buffer — no intermediate
//!    clone of keys or values.

use std::sync::atomic::{fence, Ordering};

use silo_index::{InsertOutcome, NodeChange, NodeChanges, NodeRef};
use silo_tid::{Tid, TidWord};

use crate::arena::{Arena, ArenaSlice};
use crate::database::{CommitWrite, CommitWrites, Table, TableId};
use crate::error::{Abort, AbortReason};
use crate::gc::Garbage;
use crate::record::{Record, RecordPtr};
use crate::set::{self, IndexedSet, Keyed};
use crate::worker::Worker;

/// A read-set entry: a record and the TID word observed when it was read.
#[derive(Debug, Clone, Copy)]
struct ReadEntry {
    record: *const Record,
    observed: TidWord,
}

/// A write-set entry: the record to modify and its new state. Key and value
/// bytes live in the transaction's arena, so the entry is plain-old-data and
/// cheap to copy out during Phase 3.
#[derive(Debug, Clone, Copy)]
struct WriteEntry {
    table: TableId,
    key: ArenaSlice,
    record: *mut Record,
    /// `Some(bytes)` for an insert/update, `None` for a delete.
    new_value: Option<ArenaSlice>,
    /// The record is an absent placeholder created by this transaction's own
    /// insert (§4.5 "Inserts").
    is_insert: bool,
}

impl WriteEntry {
    fn is_for(&self, table: TableId, key: &[u8]) -> bool {
        // SAFETY: write-set keys live in the transaction's arena, which is
        // only reset after the write-set has been cleared.
        self.table == table && unsafe { self.key.as_slice() } == key
    }
}

impl Keyed for WriteEntry {
    fn key_hash(&self) -> u64 {
        // SAFETY: as in `is_for`.
        set::hash_bytes(self.table, unsafe { self.key.as_slice() })
    }
}

/// A node-set entry: an index leaf and the version under which it was first
/// examined.
#[derive(Debug, Clone, Copy)]
struct NodeSetEntry {
    table: TableId,
    node: NodeRef,
    version: u64,
}

fn node_hash(table: TableId, node: NodeRef) -> u64 {
    set::finish(set::mix(table as u64, node.as_usize() as u64))
}

impl Keyed for NodeSetEntry {
    fn key_hash(&self) -> u64 {
        node_hash(self.table, self.node)
    }
}

/// What the most recent point read found: the record `key` (held in
/// [`TxnContext::memo_key`]) maps to and the TID word observed, which the
/// read-set already holds.
#[derive(Debug, Clone, Copy)]
struct ReadMemo {
    table: TableId,
    record: *const Record,
    observed: TidWord,
}

/// The reusable per-worker transaction state: read/write/node sets, insert
/// placeholders, a scratch buffer for consistent record reads, and the bump
/// arena backing write-set keys and values.
///
/// A worker owns exactly one context, and the one live [`Txn`] that borrows
/// the worker uses it in place; the transaction's drop clears every set
/// (retaining capacity) and rewinds the arena — so after warm-up, beginning
/// and finishing transactions performs no heap allocation, and neither moves
/// the context.
#[derive(Debug, Default)]
pub(crate) struct TxnContext {
    read_set: Vec<ReadEntry>,
    /// At most one entry per `(table, key)`.
    write_set: IndexedSet<WriteEntry>,
    /// At most one entry per `(table, leaf)`, holding the first version the
    /// transaction saw the leaf at.
    node_set: IndexedSet<NodeSetEntry>,
    /// Set by every point read that finds a record, dropped by every other
    /// read or scan; see the module docs.
    memo: Option<ReadMemo>,
    memo_key: Vec<u8>,
    /// Absent placeholder records inserted by this transaction, kept so an
    /// abort can schedule their cleanup.
    placeholders: Vec<(TableId, ArenaSlice, RecordPtr)>,
    /// Value bytes of the record being read. Snapshot transactions, which
    /// have no context of their own, borrow it from the idle worker.
    pub(crate) scratch: Vec<u8>,
    arena: Arena,
}

// SAFETY: between transactions every set is empty, the memo is `None` and
// the arena holds only plain bytes, so moving the context (with its owning Worker) to another
// thread is sound. While a transaction is live the context is pinned by the
// transaction's exclusive borrow of the worker and cannot move at all.
unsafe impl Send for TxnContext {}

impl TxnContext {
    /// Clears all transaction state, retaining allocated capacity, and
    /// rewinds the arena.
    fn reset(&mut self) {
        self.read_set.clear();
        self.write_set.clear();
        self.node_set.clear();
        self.memo = None;
        self.placeholders.clear();
        self.scratch.clear();
        self.arena.reset();
    }

    /// Cumulative global-allocator hits made by the arena (stats).
    pub(crate) fn arena_chunk_allocs(&self) -> u64 {
        self.arena.chunk_allocs
    }

    fn find_write(&self, table: TableId, key: &[u8]) -> Option<usize> {
        self.write_set
            .find(|| set::hash_bytes(table, key), |w| w.is_for(table, key))
    }

    fn find_node(&self, table: TableId, node: NodeRef) -> Option<usize> {
        self.node_set.find(
            || node_hash(table, node),
            |e| e.table == table && e.node == node,
        )
    }

    /// Adds `node` to the node-set unless it is already there. A repeat
    /// observation keeps the version seen first: had the leaf changed in
    /// between, that first version is the one that can no longer validate,
    /// so it decides commit exactly as two entries would.
    fn observe_node(&mut self, table: TableId, node: NodeRef, version: u64) {
        if self.find_node(table, node).is_none() {
            self.node_set.push(NodeSetEntry {
                table,
                node,
                version,
            });
        }
    }

    /// The memo, if it describes `key`.
    fn memo_for(&self, table: TableId, key: &[u8]) -> Option<ReadMemo> {
        self.memo
            .filter(|m| m.table == table && self.memo_key == key)
    }
}

/// A serializable read/write transaction. Created by [`Worker::begin`].
///
/// Transactions follow the one-shot model (§3): the application performs all
/// of its reads and writes through the methods below and finally calls
/// [`Txn::commit`] (or [`Txn::abort`]). Dropping an uncommitted transaction
/// aborts it.
///
/// A live transaction is pinned to the thread that began it (it holds raw
/// record and arena pointers), so `Txn` is `!Send`:
///
/// ```compile_fail
/// fn assert_send<T: Send>(_: T) {}
/// let db = silo_core::Database::open(silo_core::SiloConfig::for_testing());
/// let mut w = db.register_worker();
/// let txn = w.begin();
/// assert_send(txn); // must not compile
/// ```
pub struct Txn<'w> {
    worker: &'w mut Worker,
    poisoned: Option<AbortReason>,
    /// Set once Phase 1 has acquired the write-set locks; tells the abort
    /// path whether it owns (and must release) those lock bits.
    locks_held: bool,
    finished: bool,
    /// Whether this transaction records its reads/writes into the worker's
    /// history session. Decided once at `begin` (one relaxed load of the
    /// recorder's enabled flag) so the per-read check is a plain bool — and
    /// constant `false` when no recorder is installed.
    recording: bool,
    /// Keeps `Txn` `!Send`, as it was when the raw-pointer sets lived inline:
    /// a live transaction holds record and arena pointers and must stay on
    /// the thread that began it (`TxnContext`'s `Send` impl is only argued
    /// for the empty, between-transactions state).
    _not_send: std::marker::PhantomData<*mut ()>,
}

impl<'w> std::fmt::Debug for Txn<'w> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Txn")
            .field("reads", &self.worker.ctx.read_set.len())
            .field("writes", &self.worker.ctx.write_set.len())
            .field("nodes", &self.worker.ctx.node_set.len())
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl<'w> Txn<'w> {
    pub(crate) fn new(worker: &'w mut Worker) -> Self {
        let recording = worker.history.as_mut().is_some_and(|h| h.begin_txn());
        Txn {
            worker,
            poisoned: None,
            locks_held: false,
            finished: false,
            recording,
            _not_send: std::marker::PhantomData,
        }
    }

    /// The worker executing this transaction.
    pub fn worker_id(&self) -> usize {
        self.worker.id()
    }

    /// Number of records in the read-set (diagnostics).
    pub fn read_set_len(&self) -> usize {
        self.worker.ctx.read_set.len()
    }

    /// Number of records in the write-set (diagnostics).
    pub fn write_set_len(&self) -> usize {
        self.worker.ctx.write_set.len()
    }

    /// Number of leaves in the node-set (diagnostics).
    pub fn node_set_len(&self) -> usize {
        self.worker.ctx.node_set.len()
    }

    /// Number of insert placeholders created by this transaction
    /// (diagnostics).
    pub fn placeholder_len(&self) -> usize {
        self.worker.ctx.placeholders.len()
    }

    fn table(&mut self, id: TableId) -> &'static Table {
        let ptr = self.worker.table_ptr(id);
        // SAFETY: the worker's table cache holds an `Arc<Table>` for the
        // worker's lifetime, which outlives the transaction borrowing it; the
        // 'static here is a private shorthand never exposed to callers.
        unsafe { &*ptr }
    }

    fn poison(&mut self, reason: AbortReason) -> Abort {
        if self.poisoned.is_none() {
            self.poisoned = Some(reason);
        }
        Abort(reason)
    }

    /// Records one read into the worker's history session (when this
    /// transaction is recording). `observed` is the raw TID of the version
    /// the read returned; `0` stands for the initial (never-written) version,
    /// recorded for keys missing from the index.
    #[inline]
    fn record_read(&mut self, table: TableId, key: &[u8], observed: u64) {
        if self.recording {
            if let Some(history) = self.worker.history.as_mut() {
                history.record_read(table, key, observed);
            }
        }
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Reads the value of `key` in `table`, or `None` if the key is absent.
    ///
    /// Reads observe the transaction's own earlier writes. Absent keys are
    /// tracked through the node-set (missing from the index) or the read-set
    /// (absent record present in the index), so a concurrent insert is
    /// detected at commit time.
    ///
    /// This is the collecting form of [`Txn::read_with`]: it allocates a
    /// fresh `Vec` for the returned value.
    pub fn read(&mut self, table: TableId, key: &[u8]) -> Result<Option<Vec<u8>>, Abort> {
        self.read_with(table, key, <[u8]>::to_vec)
    }

    /// Reads `key` and, if it is present, hands its value to `f` as a slice
    /// borrowed from the transaction; returns what `f` returned, or `None`
    /// for an absent key. Nothing is allocated: the value is read into the
    /// worker's scratch buffer, which `f` sees for the duration of the call.
    pub fn read_with<R>(
        &mut self,
        table: TableId,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>, Abort> {
        let mut buf = std::mem::take(&mut self.worker.ctx.scratch);
        let found = self.read_into(table, key, &mut buf);
        let result = found.map(|found| found.then(|| f(&buf)));
        self.worker.ctx.scratch = buf;
        result
    }

    /// Reads the value of `key` in `table` into `out`, returning whether the
    /// key was present. `out` is cleared first; on `Ok(false)` it is left
    /// empty. This is the allocation-free read path: a warmed caller buffer
    /// makes the whole read touch no allocator.
    pub fn read_into(
        &mut self,
        table: TableId,
        key: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<bool, Abort> {
        if let Some(reason) = self.poisoned {
            return Err(Abort(reason));
        }
        out.clear();
        // Read-your-own-writes.
        if let Some(idx) = self.worker.ctx.find_write(table, key) {
            return Ok(match self.worker.ctx.write_set.entries[idx].new_value {
                Some(value) => {
                    // SAFETY: arena slice valid until the txn finishes.
                    out.extend_from_slice(unsafe { value.as_slice() });
                    true
                }
                None => false,
            });
        }
        match self.read_internal(table, key, out)? {
            ReadOutcome::Present => Ok(true),
            ReadOutcome::Absent | ReadOutcome::Missing => {
                out.clear();
                Ok(false)
            }
        }
    }

    /// Reads `key` and returns whether it exists, without copying the value
    /// out of the transaction.
    pub fn exists(&mut self, table: TableId, key: &[u8]) -> Result<bool, Abort> {
        Ok(self.read_with(table, key, |_| ())?.is_some())
    }

    /// The §4.5 record-read protocol against the index. On
    /// [`ReadOutcome::Present`] the value bytes are in `buf`; in every case
    /// the read has been registered in the read-set or node-set as required
    /// for commit-time validation, and the read memo describes `key` if it
    /// maps to a record and is empty otherwise.
    fn read_internal(
        &mut self,
        table_id: TableId,
        key: &[u8],
        buf: &mut Vec<u8>,
    ) -> Result<ReadOutcome, Abort> {
        let retry_limit = self.worker.config().read_retry_limit;
        let table = self.table(table_id);
        self.worker.ctx.memo = None;
        let mut attempts = 0;
        loop {
            let (value, node, version) = table.tree().get_tracked(key);
            match value {
                None => {
                    self.worker.ctx.observe_node(table_id, node, version);
                    self.record_read(table_id, key, 0);
                    return Ok(ReadOutcome::Missing);
                }
                Some(ptr) => {
                    let record = ptr as *const Record;
                    // The leaf → record hop is a dependent miss; have the
                    // data lines on their way while the TID word arrives.
                    Record::prefetch_data(record);
                    // SAFETY: records referenced from the index are only freed
                    // after a grace period; our refreshed worker epoch pins them.
                    let rec = unsafe { &*record };
                    let word = rec.read_consistent(buf);
                    if !word.is_latest() {
                        // Superseded between the index lookup and the data
                        // read: retry through the index (paper §4.5).
                        attempts += 1;
                        if attempts > retry_limit {
                            return Err(self.poison(AbortReason::UnstableRead));
                        }
                        continue;
                    }
                    self.worker.ctx.read_set.push(ReadEntry {
                        record,
                        observed: word,
                    });
                    self.worker.ctx.memo = Some(ReadMemo {
                        table: table_id,
                        record,
                        observed: word,
                    });
                    self.worker.ctx.memo_key.clear();
                    self.worker.ctx.memo_key.extend_from_slice(key);
                    // An absent record's TID is its deleting transaction's:
                    // exactly the version this read observed.
                    self.record_read(table_id, key, word.tid().raw());
                    if word.is_absent() {
                        return Ok(ReadOutcome::Absent);
                    }
                    return Ok(ReadOutcome::Present);
                }
            }
        }
    }

    /// Scans `[start, end)` in `table` (ascending key order), returning the
    /// present records among the first `limit` index entries.
    ///
    /// This is the collecting form of [`Txn::scan_with`]: it owns every key
    /// and value it returns, so it allocates per record.
    pub fn scan(
        &mut self,
        table_id: TableId,
        start: &[u8],
        end: Option<&[u8]>,
        limit: Option<usize>,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>, Abort> {
        let mut out = Vec::new();
        self.scan_with(table_id, start, end, limit, |key, value| {
            out.push((key.to_vec(), value.to_vec()));
        })?;
        Ok(out)
    }

    /// Scans `[start, end)` in `table` (ascending key order), calling
    /// `visit(key, value)` for each present record with both slices borrowed
    /// from the transaction for the duration of the call.
    ///
    /// Every index leaf examined is added to the node-set, which is what
    /// protects the scanned range against phantoms (§4.6). The scan observes
    /// committed state; values written earlier by this same transaction are
    /// overlaid for keys the scan visits, but keys newly inserted by this
    /// transaction are not merged into the result. `limit` bounds the index
    /// entries examined, so records found absent (deleted but not yet
    /// unhooked) count against it without being visited.
    pub fn scan_with(
        &mut self,
        table_id: TableId,
        start: &[u8],
        end: Option<&[u8]>,
        limit: Option<usize>,
        mut visit: impl FnMut(&[u8], &[u8]),
    ) -> Result<(), Abort> {
        if let Some(reason) = self.poisoned {
            return Err(Abort(reason));
        }
        let table = self.table(table_id);
        // The scan's working memory and the record buffer leave the worker
        // while the index drives `scanned_record`, which needs `&mut self`.
        let mut scan = std::mem::take(&mut self.worker.scan);
        let mut buf = std::mem::take(&mut self.worker.ctx.scratch);
        let mut outcome = Ok(());
        table
            .tree()
            .scan_with(&mut scan, start, end, limit, |key, ptr| {
                if outcome.is_ok() {
                    outcome = self.scanned_record(
                        table_id,
                        key,
                        ptr as *const Record,
                        &mut buf,
                        &mut visit,
                    );
                }
            });
        for &(node, version) in scan.nodes() {
            self.worker.ctx.observe_node(table_id, node, version);
        }
        self.worker.ctx.memo = None;
        self.worker.scan = scan;
        self.worker.ctx.scratch = buf;
        outcome
    }

    /// Reads one record the index scan produced, registers it for
    /// validation, and visits it if it is present (with this transaction's
    /// own pending update overlaid).
    fn scanned_record(
        &mut self,
        table_id: TableId,
        key: &[u8],
        record: *const Record,
        buf: &mut Vec<u8>,
        visit: &mut impl FnMut(&[u8], &[u8]),
    ) -> Result<(), Abort> {
        // SAFETY: as in `read_internal`.
        let rec = unsafe { &*record };
        let word = rec.read_consistent(buf);
        if !word.is_latest() {
            // The record was superseded while scanning; the node-set (and
            // read-set of the superseding writer) will catch any real
            // conflict, so read the new version through the index.
            if let ReadOutcome::Present = self.read_internal(table_id, key, buf)? {
                visit(key, buf);
            }
            return Ok(());
        }
        self.worker.ctx.read_set.push(ReadEntry {
            record,
            observed: word,
        });
        self.record_read(table_id, key, word.tid().raw());
        if !word.is_absent() {
            // Overlay this transaction's own pending update, if any.
            match self.worker.ctx.find_write(table_id, key) {
                Some(idx) => {
                    if let Some(v) = self.worker.ctx.write_set.entries[idx].new_value {
                        // SAFETY: arena slice valid until the txn finishes.
                        visit(key, unsafe { v.as_slice() });
                    }
                }
                None => visit(key, buf),
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Writes `value` for `key`, inserting the key if it does not exist
    /// (upsert semantics).
    pub fn write(&mut self, table: TableId, key: &[u8], value: &[u8]) -> Result<(), Abort> {
        if let Some(reason) = self.poisoned {
            return Err(Abort(reason));
        }
        // Merge with an existing write-set entry.
        if let Some(idx) = self.worker.ctx.find_write(table, key) {
            self.worker.ctx.write_set.entries[idx].new_value =
                Some(self.worker.ctx.arena.alloc(value));
            return Ok(());
        }
        match self.record_for_write(table, key)? {
            Some(found) => {
                self.push_write(table, key, found.record, Some(value));
                Ok(())
            }
            None => self.insert_missing(table, key, value),
        }
    }

    /// The record `key` maps to, for an operation about to add it to the
    /// write-set: from the read memo when the transaction's previous
    /// operation was a read of this very key — the read-set already holds
    /// that observation — and through a tracked read of its own otherwise.
    /// `None` when the key is missing from the index.
    fn record_for_write(&mut self, table: TableId, key: &[u8]) -> Result<Option<ReadMemo>, Abort> {
        if self.worker.ctx.memo_for(table, key).is_none() {
            let mut buf = std::mem::take(&mut self.worker.ctx.scratch);
            let outcome = self.read_internal(table, key, &mut buf);
            self.worker.ctx.scratch = buf;
            outcome?;
        }
        // Either way the memo now describes `key`, or is empty.
        Ok(self.worker.ctx.memo)
    }

    /// Adds a write-set entry for `key`, which has none yet.
    fn push_write(
        &mut self,
        table: TableId,
        key: &[u8],
        record: *const Record,
        new_value: Option<&[u8]>,
    ) {
        let entry = WriteEntry {
            table,
            key: self.worker.ctx.arena.alloc(key),
            record: record as *mut Record,
            new_value: new_value.map(|v| self.worker.ctx.arena.alloc(v)),
            is_insert: false,
        };
        self.worker.ctx.write_set.push(entry);
    }

    /// Updates an existing key, failing (without poisoning the transaction)
    /// if the key does not exist. Returns whether the key existed.
    pub fn update(&mut self, table: TableId, key: &[u8], value: &[u8]) -> Result<bool, Abort> {
        if let Some(reason) = self.poisoned {
            return Err(Abort(reason));
        }
        if let Some(idx) = self.worker.ctx.find_write(table, key) {
            if self.worker.ctx.write_set.entries[idx].new_value.is_none() {
                return Ok(false);
            }
            self.worker.ctx.write_set.entries[idx].new_value =
                Some(self.worker.ctx.arena.alloc(value));
            return Ok(true);
        }
        match self.record_for_write(table, key)? {
            Some(found) if !found.observed.is_absent() => {
                self.push_write(table, key, found.record, Some(value));
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Inserts `key → value`, aborting the transaction if the key already
    /// maps to a non-absent record (§4.5).
    pub fn insert(&mut self, table_id: TableId, key: &[u8], value: &[u8]) -> Result<(), Abort> {
        if let Some(reason) = self.poisoned {
            return Err(Abort(reason));
        }
        if let Some(idx) = self.worker.ctx.find_write(table_id, key) {
            // Key written earlier in this transaction: a previous delete makes
            // this a plain re-insert; a previous value makes it a duplicate.
            if self.worker.ctx.write_set.entries[idx].new_value.is_none() {
                self.worker.ctx.write_set.entries[idx].new_value =
                    Some(self.worker.ctx.arena.alloc(value));
                return Ok(());
            }
            return Err(self.poison(AbortReason::DuplicateKey));
        }
        self.insert_missing(table_id, key, value)
    }

    /// The insert path proper, for a key the write-set does not hold.
    fn insert_missing(&mut self, table_id: TableId, key: &[u8], value: &[u8]) -> Result<(), Abort> {
        let table = self.table(table_id);
        // Construct the absent placeholder record before the commit protocol
        // runs, so Phase 1 has something to lock (§4.5 "Inserts"). It is
        // sized for the value so Phase 3 can normally overwrite it in place.
        let placeholder_word = TidWord::new(Tid::ZERO, false, true, true);
        let placeholder = self
            .worker
            .alloc_record_sized(&[], placeholder_word, value.len());

        match table.tree().insert_if_absent(key, placeholder as u64) {
            InsertOutcome::Exists {
                value: existing, ..
            } => {
                // The placeholder was never published; hand it straight back
                // to the worker's pool.
                // SAFETY: exclusively owned, never shared.
                unsafe { self.worker.pool.recycle(RecordPtr(placeholder)) };
                let record = existing as *const Record;
                // SAFETY: as in `read_internal`.
                let rec = unsafe { &*record };
                let mut buf = std::mem::take(&mut self.worker.ctx.scratch);
                let word = rec.read_consistent(&mut buf);
                self.worker.ctx.scratch = buf;
                if word.is_latest() && word.is_absent() {
                    // The key was deleted (or is another transaction's
                    // placeholder): treat this as a write over the absent
                    // record, validated through the read-set.
                    self.worker.ctx.read_set.push(ReadEntry {
                        record,
                        observed: word,
                    });
                    // The insert's implicit absence check observed the
                    // delete's version (or 0 for a foreign placeholder).
                    self.record_read(table_id, key, word.tid().raw());
                    self.push_write(table_id, key, record, Some(value));
                    return Ok(());
                }
                Err(self.poison(AbortReason::DuplicateKey))
            }
            InsertOutcome::Inserted { node_changes } => {
                self.apply_node_set_fixup(table_id, &node_changes)?;
                let key_slice = self.worker.ctx.arena.alloc(key);
                self.worker
                    .ctx
                    .placeholders
                    .push((table_id, key_slice, RecordPtr(placeholder)));
                self.worker.ctx.read_set.push(ReadEntry {
                    record: placeholder,
                    observed: placeholder_word,
                });
                // A fresh insert's implicit absence check observed the
                // initial (never-written) version.
                self.record_read(table_id, key, 0);
                let entry = WriteEntry {
                    table: table_id,
                    key: key_slice,
                    record: placeholder,
                    new_value: Some(self.worker.ctx.arena.alloc(value)),
                    is_insert: true,
                };
                self.worker.ctx.write_set.push(entry);
                Ok(())
            }
        }
    }

    /// Deletes `key`, returning whether it existed. The record is marked
    /// absent at commit and unhooked from the index later by the garbage
    /// collector (§4.5 "Deletes", §4.9 "Deletions").
    pub fn delete(&mut self, table_id: TableId, key: &[u8]) -> Result<bool, Abort> {
        if let Some(reason) = self.poisoned {
            return Err(Abort(reason));
        }
        if let Some(idx) = self.worker.ctx.find_write(table_id, key) {
            let existed = self.worker.ctx.write_set.entries[idx].new_value.is_some();
            // Whether the key came from an earlier insert or write in this
            // same transaction, committing the entry as valueless marks the
            // record absent.
            self.worker.ctx.write_set.entries[idx].new_value = None;
            return Ok(existed);
        }
        match self.record_for_write(table_id, key)? {
            Some(found) if !found.observed.is_absent() => {
                self.push_write(table_id, key, found.record, None);
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Applies the §4.6 node-set fix-up after an insert performed by this
    /// transaction: version entries for nodes the insert modified are
    /// advanced to the post-insert version; a mismatch means a concurrent
    /// transaction also modified the node, so we abort. Nodes created by
    /// splits inherit membership from the node they split from.
    fn apply_node_set_fixup(
        &mut self,
        table_id: TableId,
        changes: &NodeChanges,
    ) -> Result<(), Abort> {
        for change in changes.iter() {
            match change {
                NodeChange::Updated {
                    node,
                    old_version,
                    new_version,
                } => {
                    if let Some(at) = self.worker.ctx.find_node(table_id, *node) {
                        let entry = &mut self.worker.ctx.node_set.entries[at];
                        if entry.version == *old_version {
                            entry.version = *new_version;
                        } else if entry.version != *new_version {
                            return Err(self.poison(AbortReason::NodeSetFixup));
                        }
                    }
                }
                NodeChange::Created {
                    node,
                    version,
                    split_from,
                } => {
                    if self.worker.ctx.find_node(table_id, *split_from).is_some() {
                        self.worker.ctx.observe_node(table_id, *node, *version);
                    }
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Commit / abort
    // ------------------------------------------------------------------

    /// Runs the commit protocol (Figure 2). On success returns the commit
    /// TID; on failure the transaction has aborted and released all locks.
    pub fn commit(mut self) -> Result<Tid, Abort> {
        match self.commit_inner() {
            Ok(tid) => {
                self.worker.stats.commits += 1;
                self.finished = true;
                Ok(tid)
            }
            Err(abort) => {
                self.abort_inner(abort.0);
                self.finished = true;
                Err(abort)
            }
        }
    }

    /// Aborts the transaction explicitly.
    pub fn abort(mut self) {
        self.abort_inner(AbortReason::UserRequested);
        self.finished = true;
    }

    fn commit_inner(&mut self) -> Result<Tid, Abort> {
        if let Some(reason) = self.poisoned {
            return Err(Abort(reason));
        }

        // A read-only transaction (§4.4) has nothing to lock, install or
        // log: it takes its epoch, validates, and draws a TID so that its
        // worker's TIDs stay monotone. The fences below order the lock
        // acquisitions before the epoch load and the epoch load before the
        // validation loads; with no locks taken and no TID ever stored into
        // a record, the acquire load alone keeps the epoch at or before
        // validation, and `generate` never returns a TID below an observed
        // one whatever epoch it is given.
        let read_only = self.worker.ctx.write_set.is_empty();
        let commit_epoch = if read_only {
            self.worker.database().epochs().global_epoch()
        } else {
            self.lock_write_set()
        };

        // ---------------- Phase 2 ----------------
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

        let commit_tid = if self.worker.config().global_tid {
            self.worker
                .database()
                .global_tid_generator()
                .generate(max_observed, commit_epoch)
        } else {
            let mut tid_epoch = commit_epoch;
            if read_only {
                // A worker has 2^21 TIDs per epoch, and a loop of empty
                // transactions can use them up. A read-only commit holds no
                // locks and will not touch a record again, so it waits for
                // the next epoch rather than overflow. It refreshes rather
                // than just reads `E` so that its own `e_w` cannot hold
                // the advance back.
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
            self.worker.tid_gen().generate(max_observed, tid_epoch)
        };

        if !read_only {
            // ---------------- Phase 3 ----------------
            for i in 0..self.worker.ctx.write_set.len() {
                self.apply_write(i, commit_tid, commit_epoch);
            }
            // Every lock was released by `apply_write` (TID store + unlock
            // are a single atomic store, §4.4 Phase 3).
            self.locks_held = false;

            // Report to the durability subsystem (if installed). The log
            // record carries the TID and the table/key/value of every
            // modification (§4.10); the hook serializes directly from the
            // arena-backed write-set into the worker's log buffer — nothing
            // is cloned here.
            if let Some(hook) = self.worker.database().commit_hook() {
                hook.on_commit(
                    self.worker.id(),
                    commit_tid,
                    &WriteSetView(&self.worker.ctx.write_set.entries),
                );
            }
        }

        // Close the recorded transaction: writes (keys still alive in the
        // arena) plus the commit TID. Reads were recorded as they happened.
        if self.recording {
            if let Some(history) = self.worker.history.as_mut() {
                for entry in &self.worker.ctx.write_set.entries {
                    // SAFETY: arena slices are valid until the txn finishes.
                    history.record_write(
                        entry.table,
                        unsafe { entry.key.as_slice() },
                        entry.new_value.is_none(),
                    );
                }
                history.finish_txn(Some(commit_tid), true);
            }
            self.recording = false;
        }

        Ok(commit_tid)
    }

    /// Phase 1: locks every write-set record and returns the epoch read at
    /// the serialization point.
    fn lock_write_set(&mut self) -> u64 {
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
        let commit_epoch = self.worker.database().epochs().global_epoch();
        fence(Ordering::SeqCst);
        commit_epoch
    }

    /// Installs one write-set entry and releases its lock (Phase 3).
    fn apply_write(&mut self, index: usize, commit_tid: Tid, commit_epoch: u64) {
        let cfg_overwrite = self.worker.config().overwrite_in_place;
        let cfg_snapshots = self.worker.config().enable_snapshots;
        let snap_k = self.worker.config().epoch.snapshot_interval_epochs;

        // The entry is plain-old-data (key/value are arena slices): copy it
        // out so no borrow of the write-set is held across the &mut self
        // calls below. The arena is not touched again until the transaction
        // finishes, so the slices stay valid throughout.
        let WriteEntry {
            table: table_id,
            key,
            record,
            new_value,
            is_insert,
        } = self.worker.ctx.write_set.entries[index];
        // SAFETY: we hold the record's lock; it is pinned by our epoch.
        let rec = unsafe { &*record };
        let old_word = rec.tid().load_relaxed();
        let old_epoch = old_word.tid().epoch();
        let same_snapshot =
            silo_epoch::snap(old_epoch, snap_k) == silo_epoch::snap(commit_epoch, snap_k);
        let snap_epoch = silo_epoch::snap(commit_epoch, snap_k);
        let present_word = TidWord::new(commit_tid, false, true, false);
        let absent_word = TidWord::new(commit_tid, false, true, true);

        match new_value {
            Some(value) => {
                // SAFETY: arena slices are valid until the txn finishes.
                let value = unsafe { value.as_slice() };
                // SAFETY: as above.
                let key = unsafe { key.as_slice() };
                if is_insert {
                    // Freshly inserted placeholder: give it its real value and
                    // TID. The placeholder was sized for the value at insert
                    // time; a later same-transaction overwrite may have grown
                    // it past the capacity, in which case a new record is
                    // installed instead.
                    if rec.fits(value) {
                        // SAFETY: lock held, fits checked.
                        unsafe { rec.overwrite(value) };
                        rec.tid().store_and_unlock(present_word);
                        self.worker.stats.inplace_overwrites += 1;
                    } else {
                        self.install_new_version(
                            table_id,
                            key,
                            record,
                            value,
                            present_word,
                            old_word,
                            false,
                            commit_epoch,
                        );
                    }
                    return;
                }
                let keep_old_for_snapshot = cfg_snapshots && !same_snapshot;
                let can_overwrite = cfg_overwrite && rec.fits(value) && !keep_old_for_snapshot;
                if can_overwrite {
                    // SAFETY: lock held, fits checked.
                    unsafe { rec.overwrite(value) };
                    rec.tid().store_and_unlock(present_word);
                    self.worker.stats.inplace_overwrites += 1;
                } else {
                    self.install_new_version(
                        table_id,
                        key,
                        record,
                        value,
                        present_word,
                        old_word,
                        keep_old_for_snapshot,
                        commit_epoch,
                    );
                }
            }
            None => {
                // Delete: keep the old version reachable for snapshots when it
                // crosses a snapshot boundary, then mark the key absent and
                // schedule the two-stage cleanup (§4.5 "Deletes", §4.9
                // "Deletions"). The Unhook garbage outlives the transaction,
                // so the key is copied out of the arena here — deletes are the
                // one write kind that pays an owned-key allocation.
                // SAFETY: arena slice valid until the txn finishes.
                let owned_key = unsafe { key.as_slice() }.to_vec();
                let keep_old_for_snapshot = cfg_snapshots && !same_snapshot && !is_insert;
                if keep_old_for_snapshot {
                    let new_head = self.install_new_version(
                        table_id,
                        &owned_key,
                        record,
                        &[],
                        absent_word,
                        old_word,
                        true,
                        commit_epoch,
                    );
                    // `install_new_version` registered the superseded version;
                    // additionally schedule the unhook of the new absent head.
                    self.worker.defer_snapshot(
                        snap_epoch,
                        Garbage::Unhook {
                            table: table_id,
                            key: owned_key,
                            record: RecordPtr(new_head),
                        },
                    );
                } else {
                    rec.tid().store_and_unlock(absent_word);
                    self.worker.defer_snapshot(
                        snap_epoch,
                        Garbage::Unhook {
                            table: table_id,
                            key: owned_key,
                            record: RecordPtr(record),
                        },
                    );
                }
            }
        }
    }

    /// Installs a freshly allocated record as the new latest version for
    /// `key`, marks the old record superseded, and schedules the old version
    /// for reclamation (linked for snapshot readers when required). Returns
    /// the new record.
    #[allow(clippy::too_many_arguments)]
    fn install_new_version(
        &mut self,
        table_id: TableId,
        key: &[u8],
        old_record: *mut Record,
        value: &[u8],
        new_word: TidWord,
        old_word: TidWord,
        keep_old_for_snapshot: bool,
        commit_epoch: u64,
    ) -> *mut Record {
        let snap_k = self.worker.config().epoch.snapshot_interval_epochs;
        let new_record = self.worker.alloc_record(value, new_word);
        // The version snapshot readers fall back to: the old record when it
        // is kept for them, else whatever the old record fell back to — as
        // an in-place overwrite would have left it.
        // SAFETY: the new record is freshly allocated and not yet published;
        // we hold the old record's lock.
        unsafe {
            let prev = if keep_old_for_snapshot {
                old_record
            } else {
                (*old_record).prev()
            };
            (*new_record).set_prev(prev);
        }
        let table_ptr = self.worker.table_ptr(table_id);
        // SAFETY: the worker's table cache keeps the table alive.
        let table = unsafe { &*table_ptr };
        let updated = table.tree().update_value(key, new_record as u64);
        debug_assert!(updated, "write-set key vanished from the index");
        // Mark the old version superseded and release the lock. Readers that
        // observe the cleared latest bit retry through the index and find the
        // new record.
        // SAFETY: we hold the old record's lock.
        unsafe {
            (*old_record)
                .tid()
                .store_and_unlock(old_word.with_latest(false).with_locked(false));
        }
        if keep_old_for_snapshot {
            let snap_epoch = silo_epoch::snap(commit_epoch, snap_k);
            self.worker
                .defer_snapshot(snap_epoch, Garbage::Record(RecordPtr(old_record)));
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

    fn abort_inner(&mut self, reason: AbortReason) {
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
        // Close the recorded transaction as aborted, keeping its attempted
        // writes for diagnostics (the checker ignores aborted transactions).
        if self.recording {
            if let Some(history) = self.worker.history.as_mut() {
                for entry in &self.worker.ctx.write_set.entries {
                    // SAFETY: arena slices are valid until the txn finishes.
                    history.record_write(
                        entry.table,
                        unsafe { entry.key.as_slice() },
                        entry.new_value.is_none(),
                    );
                }
                history.finish_txn(None, false);
            }
            self.recording = false;
        }
        self.worker.stats.aborts += 1;
        self.worker.stats.abort_reasons.record(reason);
    }
}

impl<'w> Drop for Txn<'w> {
    fn drop(&mut self) {
        if !self.finished {
            self.abort_inner(self.poisoned.unwrap_or(AbortReason::UserRequested));
        }
        // Clear the context (retaining capacity) for the next transaction.
        self.worker.ctx.reset();
        self.worker.stats.arena_chunk_allocs = self.worker.ctx.arena_chunk_allocs();
    }
}

/// Borrow-based [`CommitWrites`] view over the write-set, handed to the
/// commit hook so the durability layer serializes keys and values straight
/// from the arena without any intermediate collection.
struct WriteSetView<'a>(&'a [WriteEntry]);

impl CommitWrites for WriteSetView<'_> {
    fn count(&self) -> usize {
        self.0.len()
    }

    fn for_each(&self, f: &mut dyn FnMut(CommitWrite<'_>)) {
        for w in self.0 {
            // SAFETY: arena slices are valid until the txn finishes, and the
            // hook runs strictly before that.
            f(CommitWrite {
                table: w.table,
                key: unsafe { w.key.as_slice() },
                value: w.new_value.as_ref().map(|v| unsafe { v.as_slice() }),
            });
        }
    }
}

/// Internal classification of a record read. On `Present` the value bytes
/// are in the buffer passed to [`Txn::read_internal`].
enum ReadOutcome {
    /// A present record (value copied into the caller's buffer).
    Present,
    /// The key maps to an absent record (deleted / placeholder).
    Absent,
    /// The key is not in the index at all.
    Missing,
}
