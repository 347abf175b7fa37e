//! Serializable read/write transactions: their reads, scans and writes
//! (paper §4.5–§4.6). Commit and abort are in [`crate::commit`].
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
//! All of that state lives in a `TxnContext` owned by the [`Worker`] and
//! *reused* across transactions: the transaction works on its worker's
//! context in place — it holds the worker exclusively for as long as it
//! lives — and clears it (retaining capacity) when it finishes. Write-set
//! keys and values are copied into the context's bump `Arena` rather than
//! individually heap-allocated. Together with the worker's record pool this
//! makes the steady-state hot path allocation-free, which is the point of
//! the paper's per-core memory pools (§4.8).
//!
//! **Every operation costs the same however large the transaction is.** The
//! write-set holds one entry per `(table, key)` and the node-set one per
//! `(table, leaf)`; each is an `IndexedSet`: scanned while it has a handful
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

use silo_index::{InsertOutcome, NodeChange, NodeChanges, NodeRef};
use silo_tid::{Tid, TidWord};

use crate::arena::{Arena, ArenaSlice};
use crate::database::{Table, TableId};
use crate::error::{Abort, AbortReason};
use crate::record::{Record, RecordPtr};
use crate::set::{self, IndexedSet, Keyed};
use crate::worker::Worker;

/// A read-set entry: a record and the TID word observed when it was read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReadEntry {
    pub(crate) record: *const Record,
    pub(crate) observed: TidWord,
}

/// A write-set entry: the record to modify and its new state. Key and value
/// bytes live in the transaction's arena, so the entry is plain-old-data and
/// cheap to copy out during Phase 3.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WriteEntry {
    pub(crate) table: TableId,
    pub(crate) key: ArenaSlice,
    pub(crate) record: *mut Record,
    /// `Some(bytes)` for an insert/update, `None` for a delete.
    pub(crate) new_value: Option<ArenaSlice>,
    /// The record is an absent placeholder created by this transaction's own
    /// insert (§4.5 "Inserts").
    pub(crate) is_insert: bool,
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
pub(crate) struct NodeSetEntry {
    pub(crate) table: TableId,
    pub(crate) node: NodeRef,
    pub(crate) version: u64,
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
    pub(crate) read_set: Vec<ReadEntry>,
    /// At most one entry per `(table, key)`.
    pub(crate) write_set: IndexedSet<WriteEntry>,
    /// At most one entry per `(table, leaf)`, holding the first version the
    /// transaction saw the leaf at.
    pub(crate) node_set: IndexedSet<NodeSetEntry>,
    /// Set by every point read that finds a record, dropped by every other
    /// read or scan; see the module docs.
    memo: Option<ReadMemo>,
    memo_key: Vec<u8>,
    /// Absent placeholder records inserted by this transaction, kept so an
    /// abort can schedule their cleanup.
    pub(crate) placeholders: Vec<(TableId, ArenaSlice, RecordPtr)>,
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
    pub(crate) fn reset(&mut self) {
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
    pub(crate) worker: &'w mut Worker,
    pub(crate) poisoned: Option<AbortReason>,
    /// Set once Phase 1 has acquired the write-set locks; tells the abort
    /// path whether it owns (and must release) those lock bits.
    pub(crate) locks_held: bool,
    pub(crate) finished: bool,
    /// Whether this transaction records its reads/writes into the worker's
    /// history session. Decided once at `begin` (one relaxed load of the
    /// recorder's enabled flag) so the per-read check is a plain bool — and
    /// constant `false` when no recorder is installed.
    pub(crate) recording: bool,
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
