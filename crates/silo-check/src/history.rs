//! Recorded transaction histories.
//!
//! A history is a set of **sessions** (one per worker), each an ordered list
//! of transactions. Every transaction carries:
//!
//! * its position in the session (`txn_id`),
//! * its commit TID (`None` for aborted transactions),
//! * its reads as `(table, key, observed_tid)` — `observed_tid` is the TID of
//!   the record version the read returned, `0` for the initial (never
//!   written) version,
//! * its writes as `(table, key, delete)`.
//!
//! Storage is flattened: one growable byte arena per session holds every key,
//! and reads/writes are `(offset, len)` ranges into it. Recording a
//! transaction therefore performs only amortized `Vec` growth — no per-read
//! or per-key allocations — which is what lets the engine keep its zero
//! steady-state-allocation property with recording enabled, and its
//! *zero-cost* property with recording disabled.
//!
//! Commit TIDs are **not** globally unique in Silo (workers generate them
//! decentrally, §4.2); two transactions on different workers may commit with
//! equal TIDs as long as their write-sets are disjoint. Transaction identity
//! is therefore `(session, txn_id)`; per-key version TIDs *are* unique, which
//! is all the checker needs.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use silo_tid::Tid;

/// Identifier of a table, mirroring `silo_core::TableId` (this crate cannot
/// depend on `silo-core`, which depends on it).
pub type TableId = u32;

/// One recorded read: the version of `key` this transaction observed.
#[derive(Debug, Clone, Copy)]
struct ReadRec {
    table: TableId,
    key: (u32, u32),
    /// Raw TID of the version read; `0` for the initial (absent) version.
    observed: u64,
}

/// One recorded write.
#[derive(Debug, Clone, Copy)]
struct WriteRec {
    table: TableId,
    key: (u32, u32),
    delete: bool,
}

/// One recorded transaction: outcome plus ranges into the session's flat
/// read/write arrays.
#[derive(Debug, Clone, Copy)]
struct TxnRec {
    /// Raw commit TID; meaningless when `committed` is false.
    tid: u64,
    committed: bool,
    reads: (u32, u32),
    writes: (u32, u32),
}

/// The recorded history of one worker session.
#[derive(Debug, Default)]
pub struct SessionHistory {
    session: usize,
    txns: Vec<TxnRec>,
    reads: Vec<ReadRec>,
    writes: Vec<WriteRec>,
    bytes: Vec<u8>,
    /// Read/write watermarks of the currently open transaction.
    open: Option<(u32, u32)>,
}

impl SessionHistory {
    /// Creates an empty session history.
    pub fn new(session: usize) -> Self {
        SessionHistory {
            session,
            ..Default::default()
        }
    }

    /// The session label this history belongs to (see [`HistorySession::new`]).
    pub fn session(&self) -> usize {
        self.session
    }

    /// Number of recorded (finished) transactions.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// Whether the session recorded no transactions.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Opens a new transaction. Reads and writes recorded until the matching
    /// [`SessionHistory::finish_txn`] belong to it.
    pub fn begin_txn(&mut self) {
        debug_assert!(self.open.is_none(), "unfinished recorded transaction");
        self.open = Some((self.reads.len() as u32, self.writes.len() as u32));
    }

    fn intern(&mut self, key: &[u8]) -> (u32, u32) {
        let start = self.bytes.len() as u32;
        self.bytes.extend_from_slice(key);
        (start, key.len() as u32)
    }

    /// Records one read of the open transaction. `observed_tid` is the raw
    /// TID of the version the read returned (`0` = initial version).
    pub fn record_read(&mut self, table: TableId, key: &[u8], observed_tid: u64) {
        debug_assert!(self.open.is_some(), "read recorded outside a transaction");
        let key = self.intern(key);
        self.reads.push(ReadRec {
            table,
            key,
            observed: observed_tid,
        });
    }

    /// Records one write of the open transaction.
    pub fn record_write(&mut self, table: TableId, key: &[u8], delete: bool) {
        debug_assert!(self.open.is_some(), "write recorded outside a transaction");
        let key = self.intern(key);
        self.writes.push(WriteRec { table, key, delete });
    }

    /// Closes the open transaction with its outcome. `tid` must be `Some` for
    /// committed transactions and `None` for aborts.
    pub fn finish_txn(&mut self, tid: Option<Tid>, committed: bool) {
        let (reads_start, writes_start) = self.open.take().expect("no open transaction");
        debug_assert_eq!(tid.is_some(), committed);
        self.txns.push(TxnRec {
            tid: tid.unwrap_or(Tid::ZERO).raw(),
            committed,
            reads: (reads_start, self.reads.len() as u32 - reads_start),
            writes: (writes_start, self.writes.len() as u32 - writes_start),
        });
    }

    /// Convenience builder used by tests and canned anomaly histories: push a
    /// whole transaction at once.
    pub fn push_txn(
        &mut self,
        tid: Option<Tid>,
        reads: &[(TableId, &[u8], u64)],
        writes: &[(TableId, &[u8], bool)],
    ) {
        self.begin_txn();
        for &(table, key, observed) in reads {
            self.record_read(table, key, observed);
        }
        for &(table, key, delete) in writes {
            self.record_write(table, key, delete);
        }
        self.finish_txn(tid, tid.is_some());
    }

    /// Iterates over the recorded transactions, in session order.
    pub fn txns(&self) -> impl Iterator<Item = TxnView<'_>> {
        (0..self.txns.len()).map(move |i| self.txn(i))
    }

    /// Returns the `i`-th recorded transaction.
    pub fn txn(&self, i: usize) -> TxnView<'_> {
        let rec = self.txns[i];
        TxnView {
            history: self,
            txn_id: i as u64,
            rec,
        }
    }

    /// Appends a human-readable dump of the session (one line per
    /// transaction) to `out` — the format CI uploads as an artifact when a
    /// check fails.
    pub fn write_text(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = writeln!(out, "session {} ({} txns)", self.session, self.txns.len());
        for txn in self.txns() {
            let outcome = match txn.tid() {
                Some(tid) => format!("commit tid={tid}"),
                None => "abort".to_string(),
            };
            let _ = write!(out, "  txn {} {}:", txn.txn_id(), outcome);
            for r in txn.reads() {
                let _ = write!(
                    out,
                    " r({}:{}@{})",
                    r.table,
                    format_key(r.key),
                    format_tid(r.observed)
                );
            }
            for w in txn.writes() {
                let op = if w.delete { "d" } else { "w" };
                let _ = write!(out, " {}({}:{})", op, w.table, format_key(w.key));
            }
            let _ = writeln!(out);
        }
    }
}

fn format_key(key: &[u8]) -> String {
    if key.iter().all(|b| b.is_ascii_graphic()) && !key.is_empty() {
        String::from_utf8_lossy(key).into_owned()
    } else {
        key.iter().map(|b| format!("{b:02x}")).collect()
    }
}

fn format_tid(raw: u64) -> String {
    if raw == 0 {
        "init".to_string()
    } else {
        Tid::from_raw(raw).to_string()
    }
}

/// Dumps every session of a history as text (for artifacts / debugging).
pub fn dump_sessions(sessions: &[SessionHistory]) -> String {
    let mut out = String::new();
    for s in sessions {
        s.write_text(&mut out);
    }
    out
}

/// A view of one recorded transaction.
#[derive(Clone, Copy)]
pub struct TxnView<'a> {
    history: &'a SessionHistory,
    txn_id: u64,
    rec: TxnRec,
}

impl<'a> TxnView<'a> {
    /// The session this transaction ran in.
    pub fn session(&self) -> usize {
        self.history.session
    }

    /// The transaction's position within its session.
    pub fn txn_id(&self) -> u64 {
        self.txn_id
    }

    /// The commit TID, or `None` if the transaction aborted.
    pub fn tid(&self) -> Option<Tid> {
        self.rec.committed.then(|| Tid::from_raw(self.rec.tid))
    }

    /// Whether the transaction committed.
    pub fn committed(&self) -> bool {
        self.rec.committed
    }

    /// The transaction's reads.
    pub fn reads(&self) -> impl Iterator<Item = ReadView<'a>> + '_ {
        let (start, len) = self.rec.reads;
        self.history.reads[start as usize..(start + len) as usize]
            .iter()
            .map(|r| ReadView {
                table: r.table,
                key: &self.history.bytes[r.key.0 as usize..(r.key.0 + r.key.1) as usize],
                observed: r.observed,
            })
    }

    /// The transaction's writes.
    pub fn writes(&self) -> impl Iterator<Item = WriteView<'a>> + '_ {
        let (start, len) = self.rec.writes;
        self.history.writes[start as usize..(start + len) as usize]
            .iter()
            .map(|w| WriteView {
                table: w.table,
                key: &self.history.bytes[w.key.0 as usize..(w.key.0 + w.key.1) as usize],
                delete: w.delete,
            })
    }
}

impl std::fmt::Debug for TxnView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnView")
            .field("session", &self.session())
            .field("txn_id", &self.txn_id)
            .field("tid", &self.tid())
            .finish_non_exhaustive()
    }
}

/// One read as seen by the checker.
#[derive(Debug, Clone, Copy)]
pub struct ReadView<'a> {
    /// Table the key belongs to.
    pub table: TableId,
    /// The key read.
    pub key: &'a [u8],
    /// Raw TID of the version observed (`0` = initial version).
    pub observed: u64,
}

/// One write as seen by the checker.
#[derive(Debug, Clone, Copy)]
pub struct WriteView<'a> {
    /// Table the key belongs to.
    pub table: TableId,
    /// The key written.
    pub key: &'a [u8],
    /// Whether the write was a delete.
    pub delete: bool,
}

/// The shared collection point for recorded sessions.
///
/// Install one on a database (`Database::set_history_recorder`); every worker
/// registered afterwards buffers its session locally in a [`HistorySession`]
/// and submits the whole buffer here when it is dropped (or explicitly
/// flushed). The only shared state touched on the transaction hot path is the
/// `enabled` flag — one relaxed load per `begin`.
#[derive(Debug, Default)]
pub struct HistoryRecorder {
    enabled: AtomicBool,
    sessions: Mutex<Vec<SessionHistory>>,
    /// The label of the next [`HistorySession`].
    next_session: AtomicUsize,
}

impl HistoryRecorder {
    /// Creates a recorder with recording enabled.
    pub fn new() -> Arc<Self> {
        let r = HistoryRecorder::default();
        r.enabled.store(true, Ordering::Relaxed);
        Arc::new(r)
    }

    /// Creates a recorder with recording disabled (workers pay only the
    /// per-transaction flag check until it is enabled).
    pub fn new_disabled() -> Arc<Self> {
        Arc::new(HistoryRecorder::default())
    }

    /// Turns recording on or off. Affects transactions *beginning* after the
    /// store; in-flight transactions keep the decision made at their begin.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Submits a finished session buffer. Called by [`HistorySession`];
    /// exposed for tests that build histories by hand.
    pub fn submit(&self, history: SessionHistory) {
        if !history.is_empty() {
            self.sessions.lock().unwrap().push(history);
        }
    }

    /// Takes every submitted session, leaving the recorder empty. Workers
    /// still running keep their local buffers; flush or drop them first for a
    /// complete history.
    pub fn take_sessions(&self) -> Vec<SessionHistory> {
        std::mem::take(&mut self.sessions.lock().unwrap())
    }
}

/// A worker's local recording handle: the shared recorder plus this session's
/// buffer. All recording goes through worker-local memory; the shared
/// recorder is only touched at flush (worker drop) and for the per-begin
/// enabled check.
#[derive(Debug)]
pub struct HistorySession {
    shared: Arc<HistoryRecorder>,
    log: SessionHistory,
}

impl HistorySession {
    /// Creates a worker's handle, labelled by `shared` with a session id no
    /// other handle of that recorder gets. It is not the worker id: a worker
    /// id is unique only among the live workers, so two workers that shared
    /// an id one after the other still record as two sessions.
    pub fn new(shared: Arc<HistoryRecorder>) -> Self {
        let session = shared.next_session.fetch_add(1, Ordering::Relaxed);
        HistorySession {
            shared,
            log: SessionHistory::new(session),
        }
    }

    /// Called at transaction begin. Returns whether this transaction should
    /// record (the decision is cached by the transaction so reads check a
    /// plain bool, not the shared flag).
    pub fn begin_txn(&mut self) -> bool {
        if !self.shared.is_enabled() {
            return false;
        }
        self.log.begin_txn();
        true
    }

    /// Records one read of the current transaction.
    #[inline]
    pub fn record_read(&mut self, table: TableId, key: &[u8], observed_tid: u64) {
        self.log.record_read(table, key, observed_tid);
    }

    /// Records one write of the current transaction.
    #[inline]
    pub fn record_write(&mut self, table: TableId, key: &[u8], delete: bool) {
        self.log.record_write(table, key, delete);
    }

    /// Closes the current transaction with its outcome.
    pub fn finish_txn(&mut self, tid: Option<Tid>, committed: bool) {
        self.log.finish_txn(tid, committed);
    }

    /// Hands the buffered session to the shared recorder (a fresh buffer with
    /// the same session id replaces it).
    pub fn flush(&mut self) {
        let session = self.log.session;
        let log = std::mem::replace(&mut self.log, SessionHistory::new(session));
        self.shared.submit(log);
    }
}

impl Drop for HistorySession {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_view_roundtrip() {
        let mut s = SessionHistory::new(3);
        s.begin_txn();
        s.record_read(0, b"x", 0);
        s.record_write(0, b"x", false);
        s.finish_txn(Some(Tid::new(2, 1)), true);
        s.begin_txn();
        s.record_read(1, b"y", Tid::new(2, 1).raw());
        s.finish_txn(None, false);

        assert_eq!(s.session(), 3);
        assert_eq!(s.len(), 2);
        let t0 = s.txn(0);
        assert_eq!(t0.tid(), Some(Tid::new(2, 1)));
        let reads: Vec<_> = t0.reads().collect();
        assert_eq!(reads.len(), 1);
        assert_eq!(reads[0].key, b"x");
        assert_eq!(reads[0].observed, 0);
        assert_eq!(t0.writes().count(), 1);
        let t1 = s.txn(1);
        assert!(!t1.committed());
        assert_eq!(t1.tid(), None);
        assert_eq!(t1.reads().next().unwrap().observed, Tid::new(2, 1).raw());
    }

    #[test]
    fn recorder_enable_gate_and_submission() {
        let rec = HistoryRecorder::new_disabled();
        let mut session = HistorySession::new(Arc::clone(&rec));
        assert!(!session.begin_txn(), "disabled recorder must not record");
        rec.set_enabled(true);
        assert!(session.begin_txn());
        session.record_write(0, b"k", false);
        session.finish_txn(Some(Tid::new(1, 0)), true);
        drop(session); // flushes
        let sessions = rec.take_sessions();
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].len(), 1);
        assert!(rec.take_sessions().is_empty());
        // Every handle gets a fresh label.
        assert_eq!(sessions[0].session(), 0);
        assert_eq!(HistorySession::new(Arc::clone(&rec)).log.session(), 1);
    }

    #[test]
    fn empty_sessions_are_not_submitted() {
        let rec = HistoryRecorder::new();
        let session = HistorySession::new(Arc::clone(&rec));
        drop(session);
        assert!(rec.take_sessions().is_empty());
    }

    #[test]
    fn text_dump_mentions_outcomes() {
        let mut s = SessionHistory::new(0);
        s.push_txn(Some(Tid::new(1, 0)), &[(0, b"a", 0)], &[(0, b"a", false)]);
        s.push_txn(None, &[(0, b"a", Tid::new(1, 0).raw())], &[]);
        let text = dump_sessions(&[s]);
        assert!(text.contains("commit"));
        assert!(text.contains("abort"));
        assert!(text.contains("r(0:a@init)"));
    }
}
