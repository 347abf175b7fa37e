//! Read-only snapshot transactions (paper §4.9).
//!
//! A snapshot transaction runs against the most recent *snapshot epoch*: a
//! consistent point in the serial order that lags the current epoch by `k`
//! epochs (about one second with the paper's parameters). For every record it
//! reads, the transaction walks the previous-version chain to the most recent
//! version whose TID epoch is `≤ se_w`. Because the snapshot is consistent
//! and never modified, snapshot transactions commit without validation and
//! **never abort** — which is exactly why the stock-level experiment of
//! Figure 10 benefits from them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use silo_tid::Tid;

use crate::database::TableId;
use crate::record::Record;
use crate::worker::Worker;

/// A byte-rate budget for long snapshot walks (the checkpointer's table
/// scans): on small machines an unthrottled walk competes with workers for
/// CPU, so the walk yields whenever it runs ahead of `bytes_per_sec`.
///
/// One pacer can be shared (`Arc`) by several walker threads, making the
/// rate a *global* budget across all of them. Walkers report progress with
/// [`WalkPacer::note`]; [`SnapshotTxn::scan_versions_paced`] sleeps off any
/// [`WalkPacer::backlog`] between chunks — in small slices, re-refreshing
/// the worker's epoch pin, so throttling never stalls global epoch
/// advancement.
#[derive(Debug)]
pub struct WalkPacer {
    bytes_per_sec: u64,
    started: Instant,
    bytes: AtomicU64,
}

impl WalkPacer {
    /// Creates a pacer budgeting `bytes_per_sec` (must be non-zero) from
    /// now.
    pub fn new(bytes_per_sec: u64) -> WalkPacer {
        WalkPacer {
            bytes_per_sec: bytes_per_sec.max(1),
            started: Instant::now(),
            bytes: AtomicU64::new(0),
        }
    }

    /// Records `bytes` of walk progress.
    pub fn note(&self, bytes: u64) {
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// How far the walk is ahead of its budget: the time that must still
    /// pass before the bytes reported so far fit under `bytes_per_sec`.
    pub fn backlog(&self) -> Duration {
        let target = self.bytes.load(Ordering::Relaxed) as f64 / self.bytes_per_sec as f64;
        let actual = self.started.elapsed().as_secs_f64();
        if target > actual {
            Duration::from_secs_f64(target - actual)
        } else {
            Duration::ZERO
        }
    }
}

/// A read-only transaction over a recent consistent snapshot. Created by
/// [`Worker::begin_snapshot`].
pub struct SnapshotTxn<'w> {
    worker: &'w mut Worker,
    snapshot_epoch: u64,
    reads: u64,
}

impl<'w> std::fmt::Debug for SnapshotTxn<'w> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotTxn")
            .field("snapshot_epoch", &self.snapshot_epoch)
            .field("reads", &self.reads)
            .finish()
    }
}

impl<'w> SnapshotTxn<'w> {
    pub(crate) fn new(worker: &'w mut Worker, snapshot_epoch: u64) -> Self {
        SnapshotTxn {
            worker,
            snapshot_epoch,
            reads: 0,
        }
    }

    /// The snapshot epoch this transaction reads from (`se_w`).
    pub fn snapshot_epoch(&self) -> u64 {
        self.snapshot_epoch
    }

    /// Number of records read so far (diagnostics).
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Reads `key` as of the snapshot, or `None` if the key did not exist at
    /// that point in the serial order. The collecting form of
    /// [`SnapshotTxn::read_with`].
    pub fn read(&mut self, table_id: TableId, key: &[u8]) -> Option<Vec<u8>> {
        self.read_with(table_id, key, <[u8]>::to_vec)
    }

    /// Reads `key` as of the snapshot and, if it existed at that point in
    /// the serial order, hands its value to `f` as a slice borrowed from the
    /// worker's scratch buffer; returns what `f` returned. Allocates nothing.
    pub fn read_with<R>(
        &mut self,
        table_id: TableId,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> Option<R> {
        let table_ptr = self.worker.table_ptr(table_id);
        // SAFETY: the worker's table cache keeps the table alive.
        let table = unsafe { &*table_ptr };
        let value = table.tree().get(key)?;
        self.reads += 1;
        let buf = &mut self.worker.ctx.scratch;
        // SAFETY: records reachable from the index are only freed after a
        // grace period; the worker's refreshed `se_w` pins every chain member
        // relevant for this snapshot.
        let present = unsafe { read_snapshot_version(value, self.snapshot_epoch, buf) };
        present.then(|| f(buf))
    }

    /// Scans `[start, end)` as of the snapshot, returning at most `limit`
    /// records that existed at the snapshot point. The collecting form of
    /// [`SnapshotTxn::scan_with`].
    pub fn scan(
        &mut self,
        table_id: TableId,
        start: &[u8],
        end: Option<&[u8]>,
        limit: Option<usize>,
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        self.scan_with(table_id, start, end, limit, |key, value| {
            out.push((key.to_vec(), value.to_vec()));
        });
        out
    }

    /// Scans `[start, end)` as of the snapshot, calling `visit(key, value)`
    /// for at most `limit` records that existed at the snapshot point, with
    /// both slices borrowed for the duration of the call. Allocates nothing
    /// once the worker's scan scratch has grown to the shape of the range.
    pub fn scan_with(
        &mut self,
        table_id: TableId,
        start: &[u8],
        end: Option<&[u8]>,
        limit: Option<usize>,
        mut visit: impl FnMut(&[u8], &[u8]),
    ) {
        let table_ptr = self.worker.table_ptr(table_id);
        // SAFETY: the worker's table cache keeps the table alive.
        let table = unsafe { &*table_ptr };
        let snapshot_epoch = self.snapshot_epoch;
        let Worker { ctx, scan, .. } = &mut *self.worker;
        let buf = &mut ctx.scratch;
        // The limit counts records present at the snapshot, which the index
        // cannot tell from absent ones: it walks the whole range.
        let limit = limit.unwrap_or(usize::MAX);
        let mut visited = 0;
        table
            .tree()
            .scan_with(scan, start, end, None, |key, value| {
                // SAFETY: as in `read_with`.
                if visited < limit && unsafe { read_snapshot_version(value, snapshot_epoch, buf) } {
                    visited += 1;
                    visit(key, buf);
                }
            });
        self.reads += visited as u64;
    }

    /// Streams every record of `table_id` that exists at this snapshot, in
    /// key order, into `f` as `(key, version TID, value bytes)`.
    ///
    /// This is the checkpoint scan hook (§4.9 applied to §4.10's
    /// checkpoints): the index is walked in chunks of `chunk` keys, so memory
    /// stays bounded no matter how large the table is, and the worker's
    /// *current* epoch `e_w` is re-refreshed between chunks (keeping its
    /// pinned `se_w`) so a long walk never stalls global epoch advancement.
    /// The yielded TID is the version's commit TID, which the recovery path
    /// uses to resolve conflicts against log-tail records.
    ///
    /// Returns the number of records yielded.
    pub fn scan_versions_into(
        &mut self,
        table_id: TableId,
        chunk: usize,
        f: impl FnMut(&[u8], Tid, &[u8]),
    ) -> u64 {
        self.scan_versions_paced(table_id, chunk, None, f)
    }

    /// [`SnapshotTxn::scan_versions_into`] with an optional rate limit: when
    /// a [`WalkPacer`] is given, the walk sleeps off the pacer's backlog
    /// between chunks (in short slices, keeping the worker's epoch pin fresh
    /// so global epoch advancement is delayed by at most one slice). The
    /// caller reports its notion of progress — e.g. serialized bytes — via
    /// [`WalkPacer::note`] from inside `f`.
    pub fn scan_versions_paced(
        &mut self,
        table_id: TableId,
        chunk: usize,
        pacer: Option<&WalkPacer>,
        mut f: impl FnMut(&[u8], Tid, &[u8]),
    ) -> u64 {
        let chunk = chunk.max(1);
        let snapshot_epoch = self.snapshot_epoch;
        let table_ptr = self.worker.table_ptr(table_id);
        // SAFETY: the worker's table cache keeps the table alive.
        let table = unsafe { &*table_ptr };
        let mut start: Vec<u8> = Vec::new();
        let mut data = Vec::new();
        let mut yielded = 0u64;
        loop {
            let result = table.tree().scan(&start, None, Some(chunk));
            let n = result.entries.len();
            for (key, value) in result.entries {
                let record = value as *const Record;
                // SAFETY: as in `read` — the pinned `se_w` keeps every chain
                // member this snapshot can reach alive.
                let rec = unsafe { &*record };
                // Validated read with retry: the chain *head* can change
                // under us (an in-place overwrite when snapshots are
                // disabled, or a concurrent commit pushing the version we
                // want onto the chain between the walk and the copy), so
                // copy via the §4.5 read protocol and re-walk if the version
                // turned out to belong to an epoch after the snapshot.
                while let Some(version) = rec.snapshot_version(snapshot_epoch) {
                    let word = version.read_consistent(&mut data);
                    if snapshot_epoch != u64::MAX && word.tid().epoch() > snapshot_epoch {
                        // The head moved past the snapshot mid-copy; the
                        // version this snapshot needs is now on the chain.
                        continue;
                    }
                    if !word.is_absent() {
                        self.reads += 1;
                        yielded += 1;
                        f(&key, word.tid(), &data);
                    }
                    break;
                }
                start = key;
            }
            if n < chunk {
                return yielded;
            }
            // Resume at the successor of the last key seen, and let the
            // global epoch move past us while we are between chunks.
            start.push(0);
            self.refresh_walk_pin(snapshot_epoch);
            // Throttle: sleep off the pacer backlog in ≤ 2 ms slices,
            // re-refreshing the pin after each slice so a long throttle
            // never holds back the epoch.
            if let Some(pacer) = pacer {
                loop {
                    let backlog = pacer.backlog();
                    if backlog.is_zero() {
                        break;
                    }
                    std::thread::sleep(backlog.min(std::time::Duration::from_millis(2)));
                    self.refresh_walk_pin(snapshot_epoch);
                }
            }
        }
    }

    /// Re-refreshes the worker's epoch between walk chunks: keep `se_w`
    /// pinned to the snapshot (so its versions stay reachable) while moving
    /// `e_w` forward — or, with snapshots disabled, a plain refresh.
    fn refresh_walk_pin(&self, snapshot_epoch: u64) {
        if snapshot_epoch != u64::MAX {
            self.worker.epoch().refresh_pinned(snapshot_epoch);
        } else {
            self.worker.epoch().refresh();
        }
    }

    /// Completes the snapshot transaction. Snapshot transactions are
    /// consistent by construction, so this never fails; it only updates the
    /// worker's statistics. (Dropping the transaction has the same effect.)
    pub fn finish(self) {
        // Statistics are updated in Drop.
    }
}

/// Copies into `buf` the value the record behind index value `value` had
/// at `snapshot_epoch`; returns whether the key existed at that point.
///
/// # Safety
///
/// `value` must be a record pointer read from a live index by a worker whose
/// pinned `se_w` covers `snapshot_epoch`.
unsafe fn read_snapshot_version(value: u64, snapshot_epoch: u64, buf: &mut Vec<u8>) -> bool {
    // SAFETY: forwarded from the caller's contract.
    let rec = unsafe { &*(value as *const Record) };
    let Some(version) = rec.snapshot_version(snapshot_epoch) else {
        return false;
    };
    if version.tid().read_stable().is_absent() {
        return false;
    }
    version.read_data_unvalidated(buf);
    true
}

impl<'w> Drop for SnapshotTxn<'w> {
    fn drop(&mut self) {
        self.worker.stats.snapshot_commits += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SiloConfig;
    use crate::database::Database;

    #[test]
    fn walk_pacer_backlog_tracks_budget() {
        let pacer = WalkPacer::new(1_000_000);
        assert_eq!(pacer.backlog(), Duration::ZERO);
        // 100 KB at 1 MB/s = 100 ms of budget; essentially no time passed.
        pacer.note(100_000);
        let backlog = pacer.backlog();
        assert!(
            backlog > Duration::from_millis(50) && backlog <= Duration::from_millis(100),
            "unexpected backlog {backlog:?}"
        );
    }

    #[test]
    fn paced_scan_is_throttled_and_complete() {
        // Snapshots disabled: the walk reads latest versions, so the test
        // does not depend on epoch advancement.
        let db = Database::open(SiloConfig::for_testing().without_snapshots());
        let t = db.create_table("t").unwrap();
        let mut w = db.register_worker();
        let mut txn = w.begin();
        for i in 0..200u32 {
            txn.write(t, &i.to_be_bytes(), &[0u8; 64]).unwrap();
        }
        txn.commit().unwrap();

        // 200 × 64 B of values at 100 KB/s ≈ 128 ms minimum walk time.
        let pacer = WalkPacer::new(100_000);
        let started = Instant::now();
        let mut snap = w.begin_snapshot();
        let yielded = snap.scan_versions_paced(t, 32, Some(&pacer), |_, _, value| {
            pacer.note(value.len() as u64);
        });
        assert_eq!(yielded, 200);
        assert!(
            started.elapsed() >= Duration::from_millis(100),
            "walk was not throttled: {:?}",
            started.elapsed()
        );
    }
}
