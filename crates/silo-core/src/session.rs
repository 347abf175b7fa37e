//! Session vocabulary over an embedded database.
//!
//! A [`Session`] wraps a [`Worker`] with the same verbs the network client
//! (`silo-client`) exposes over the wire — `open_table`, `get`, `put`,
//! `insert`, `delete`, `scan`, `transact` — so code written against an
//! embedded database reads the same as code written against a `silo-net`
//! server, and migrating between the two is a connection change, not a
//! rewrite.
//!
//! Single-operation verbs run as one-shot committed transactions and retry
//! transient OCC aborts (read/node validation, unstable reads) a few times
//! before giving up; non-transient aborts (duplicate key, user-requested)
//! surface immediately. Multi-operation logic goes through
//! [`Session::transact`], which runs a closure inside one transaction and
//! commits it — retries there belong to the caller, who knows whether the
//! closure is idempotent.

use std::sync::Arc;

use crate::database::{Database, TableId};
use crate::error::{Abort, AbortReason};
use crate::txn::Txn;
use crate::worker::Worker;
use silo_tid::Tid;

/// How many times single-operation verbs retry transient OCC aborts.
const SINGLE_OP_RETRIES: usize = 3;

/// A worker wrapped in the session vocabulary shared with `silo-client`.
///
/// Obtain one with [`Database::session`]. Like the [`Worker`] it owns, a
/// session is single-threaded; spawn one per thread.
///
/// ```
/// use silo_core::{Database, SiloConfig};
///
/// let db = Database::open(SiloConfig::for_testing());
/// let mut session = db.session();
/// let table = session.open_table("kv").unwrap();
/// session.put(table, b"hello", b"world").unwrap();
/// assert_eq!(session.get(table, b"hello").unwrap().as_deref(), Some(&b"world"[..]));
/// ```
pub struct Session {
    worker: Worker,
}

impl Session {
    pub(crate) fn new(worker: Worker) -> Self {
        Session { worker }
    }

    /// The underlying worker, for APIs the session vocabulary doesn't cover
    /// (snapshot transactions, GC, stats).
    pub fn worker(&mut self) -> &mut Worker {
        &mut self.worker
    }

    /// The database this session runs against.
    pub fn database(&self) -> &Arc<Database> {
        self.worker.database()
    }

    /// Returns the id of the named table, creating it if it doesn't exist.
    ///
    /// Mirrors the client's `Session::open_table`. Losing a creation race is
    /// handled by re-reading the catalog, so in the current catalog (tables
    /// are never dropped) this cannot fail; the `Result` exists for
    /// signature parity with the networked session.
    pub fn open_table(&mut self, name: &str) -> Result<TableId, Abort> {
        let db = Arc::clone(self.worker.database());
        if let Ok(id) = db.table_id(name) {
            return Ok(id);
        }
        match db.create_table(name) {
            Ok(id) => Ok(id),
            // Lost a creation race: the table exists now.
            Err(_) => db
                .table_id(name)
                .map_err(|_| Abort(AbortReason::UserRequested)),
        }
    }

    /// Reads `key`, committing a one-shot transaction.
    pub fn get(&mut self, table: TableId, key: &[u8]) -> Result<Option<Vec<u8>>, Abort> {
        self.retry(|txn| txn.read(table, key)).map(|(v, _)| v)
    }

    /// Writes (inserts or overwrites) `key`, committing a one-shot
    /// transaction. Returns the commit [`Tid`].
    pub fn put(&mut self, table: TableId, key: &[u8], value: &[u8]) -> Result<Tid, Abort> {
        self.retry(|txn| txn.write(table, key, value))
            .map(|((), tid)| tid)
    }

    /// Inserts `key`, aborting with [`AbortReason::DuplicateKey`] if it
    /// already exists; commits a one-shot transaction. Returns the commit
    /// [`Tid`].
    pub fn insert(&mut self, table: TableId, key: &[u8], value: &[u8]) -> Result<Tid, Abort> {
        self.retry(|txn| txn.insert(table, key, value))
            .map(|((), tid)| tid)
    }

    /// Deletes `key`, committing a one-shot transaction. Returns whether the
    /// key existed.
    pub fn delete(&mut self, table: TableId, key: &[u8]) -> Result<bool, Abort> {
        self.retry(|txn| txn.delete(table, key)).map(|(v, _)| v)
    }

    /// Scans `[start, end)` (unbounded when `end` is `None`) up to `limit`
    /// entries, committing a one-shot transaction.
    pub fn scan(
        &mut self,
        table: TableId,
        start: &[u8],
        end: Option<&[u8]>,
        limit: Option<usize>,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>, Abort> {
        self.retry(|txn| txn.scan(table, start, end, limit))
            .map(|(v, _)| v)
    }

    /// Runs `body` inside one transaction and commits it, returning the
    /// closure's value and the commit [`Tid`]. The transaction aborts (and
    /// the write set is discarded) if `body` returns `Err`.
    ///
    /// No automatic retry: whether re-running `body` is safe is the caller's
    /// call. Transient aborts are identifiable via [`AbortReason`].
    pub fn transact<T>(
        &mut self,
        body: impl FnOnce(&mut Txn<'_>) -> Result<T, Abort>,
    ) -> Result<(T, Tid), Abort> {
        let mut txn = self.worker.begin();
        match body(&mut txn) {
            Ok(value) => txn.commit().map(|tid| (value, tid)),
            Err(abort) => {
                txn.abort();
                Err(abort)
            }
        }
    }

    /// Marks the session quiescent so an idle session never stalls the
    /// global epoch (see `silo_epoch::EpochManager`).
    pub fn quiesce(&self) {
        self.worker.quiesce();
    }

    /// Runs `op` as a one-shot transaction and commits it, returning its
    /// value and the commit [`Tid`] — the rule every single-operation verb
    /// above follows: transient OCC aborts are retried a few times,
    /// deterministic ones (duplicate key, user-requested) surface at once.
    /// For single operations the verbs don't cover, such as a delete whose
    /// commit epoch the caller needs.
    pub fn retry<T>(
        &mut self,
        mut op: impl FnMut(&mut Txn<'_>) -> Result<T, Abort>,
    ) -> Result<(T, Tid), Abort> {
        let mut last = Abort(AbortReason::ReadValidation);
        for _ in 0..SINGLE_OP_RETRIES {
            let mut txn = self.worker.begin();
            match op(&mut txn) {
                Ok(value) => match txn.commit() {
                    Ok(tid) => return Ok((value, tid)),
                    Err(abort) => last = abort,
                },
                Err(abort) => {
                    txn.abort();
                    last = abort;
                }
            }
            match last.0 {
                // Deterministic outcomes: retrying cannot change them.
                AbortReason::DuplicateKey | AbortReason::UserRequested => return Err(last),
                _ => {}
            }
        }
        Err(last)
    }
}

impl Database {
    /// Opens a [`Session`] — the embedded counterpart of connecting a
    /// `silo-client` session to a `silo-net` server.
    pub fn session(self: &Arc<Self>) -> Session {
        Session::new(self.register_worker())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SiloConfig;

    #[test]
    fn session_verbs_roundtrip() {
        let db = Database::open(SiloConfig::for_testing());
        let mut s = db.session();
        let t = s.open_table("kv").expect("open");
        assert_eq!(s.open_table("kv").expect("idempotent"), t);

        assert_eq!(s.get(t, b"a").expect("get"), None);
        s.put(t, b"a", b"1").expect("put");
        s.insert(t, b"b", b"2").expect("insert");
        assert_eq!(
            s.insert(t, b"b", b"2").expect_err("dup").0,
            AbortReason::DuplicateKey
        );
        assert_eq!(s.get(t, b"a").expect("get").as_deref(), Some(&b"1"[..]));

        let ((ra, rb), _tid) = s
            .transact(|txn| {
                let ra = txn.read(t, b"a")?;
                txn.write(t, b"c", b"3")?;
                let rb = txn.read(t, b"b")?;
                Ok((ra, rb))
            })
            .expect("transact");
        assert_eq!(ra.as_deref(), Some(&b"1"[..]));
        assert_eq!(rb.as_deref(), Some(&b"2"[..]));

        let entries = s.scan(t, b"", None, None).expect("scan");
        assert_eq!(
            entries.iter().map(|(k, _)| k.as_slice()).collect::<Vec<_>>(),
            vec![&b"a"[..], &b"b"[..], &b"c"[..]]
        );

        assert!(s.delete(t, b"a").expect("delete"));
        assert!(!s.delete(t, b"a").expect("delete missing"));

        let aborted = s.transact(|txn| {
            txn.write(t, b"never", b"x")?;
            Err::<(), _>(Abort(AbortReason::UserRequested))
        });
        assert!(aborted.is_err());
        assert_eq!(s.get(t, b"never").expect("get"), None);
    }
}
