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
//!
//! Every read here — a point read, a range scan, the checkpoint walk — goes
//! through one version read, which copies the version it finds with the §4.5
//! read protocol: the version can be the chain head, and the chain head can
//! change under the copy.

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
/// [`WalkPacer::note`]; [`SnapshotTxn::scan_versions`] sleeps off any
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
        let buf = &mut self.worker.ctx.scratch;
        // SAFETY: records reachable from the index are only freed after a
        // grace period; the worker's refreshed `se_w` pins every chain member
        // relevant for this snapshot.
        unsafe { read_version(value, self.snapshot_epoch, buf) }?;
        self.reads += 1;
        Some(f(buf))
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
        // The limit counts records present at the snapshot, which the index
        // cannot tell from absent ones: it walks the whole range, but no
        // version is read once the limit is reached.
        let mut left = limit.unwrap_or(usize::MAX);
        self.scan_entries(table_id, start, end, None, |key, version| {
            if let Some((_, value)) = version.filter(|_| left > 0) {
                left -= 1;
                visit(key, value);
            }
            left > 0
        });
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
    /// When a [`WalkPacer`] is given, the walk also sleeps off the pacer's
    /// backlog between chunks (in short slices, keeping the worker's epoch
    /// pin fresh so global epoch advancement is delayed by at most one
    /// slice). The caller reports its notion of progress — e.g. serialized
    /// bytes — via [`WalkPacer::note`] from inside `f`.
    ///
    /// Returns the number of records yielded.
    pub fn scan_versions(
        &mut self,
        table_id: TableId,
        chunk: usize,
        pacer: Option<&WalkPacer>,
        mut f: impl FnMut(&[u8], Tid, &[u8]),
    ) -> u64 {
        let chunk = chunk.max(1);
        // Each chunk starts at the successor of the last key the previous
        // chunk walked; the two buffers swap roles between chunks.
        let (mut start, mut resume) = (Vec::new(), Vec::new());
        let mut yielded = 0u64;
        loop {
            let mut walked = 0;
            self.scan_entries(table_id, &start, None, Some(chunk), |key, version| {
                walked += 1;
                if walked == chunk {
                    resume.clear();
                    resume.extend_from_slice(key);
                    resume.push(0);
                }
                if let Some((tid, value)) = version {
                    yielded += 1;
                    f(key, tid, value);
                }
                true
            });
            if walked < chunk {
                return yielded;
            }
            std::mem::swap(&mut start, &mut resume);
            // Let the global epoch move past us while we are between chunks,
            // and sleep off the pacer backlog in ≤ 2 ms slices, re-refreshing
            // the pin after each slice so a long throttle never holds back
            // the epoch.
            self.refresh_walk_pin();
            while let Some(backlog) = pacer.map(WalkPacer::backlog).filter(|b| !b.is_zero()) {
                std::thread::sleep(backlog.min(Duration::from_millis(2)));
                self.refresh_walk_pin();
            }
        }
    }

    /// The scan body of [`SnapshotTxn::scan_with`] and
    /// [`SnapshotTxn::scan_versions`]: walks at most `entries` index entries
    /// of `[start, end)` through the worker's scan scratch and calls
    /// `visit(key, version)` on each, where `version` is the record's TID and
    /// value at the snapshot, or `None` if the key did not exist then. Once
    /// `visit` returns `false`, the rest of the range is walked without
    /// reading versions.
    fn scan_entries(
        &mut self,
        table_id: TableId,
        start: &[u8],
        end: Option<&[u8]>,
        entries: Option<usize>,
        mut visit: impl FnMut(&[u8], Option<(Tid, &[u8])>) -> bool,
    ) {
        let table_ptr = self.worker.table_ptr(table_id);
        // SAFETY: the worker's table cache keeps the table alive.
        let table = unsafe { &*table_ptr };
        let snapshot_epoch = self.snapshot_epoch;
        let reads = &mut self.reads;
        let Worker { ctx, scan, .. } = &mut *self.worker;
        let buf = &mut ctx.scratch;
        let mut reading = true;
        table
            .tree()
            .scan_with(scan, start, end, entries, |key, value| {
                if reading {
                    // SAFETY: as in `read_with`.
                    let tid = unsafe { read_version(value, snapshot_epoch, buf) };
                    *reads += u64::from(tid.is_some());
                    reading = visit(key, tid.map(|tid| (tid, buf.as_slice())));
                }
            });
    }

    /// Re-refreshes the worker's epoch between walk chunks: keep `se_w`
    /// pinned to the snapshot (so its versions stay reachable) while moving
    /// `e_w` forward — or, with snapshots disabled, a plain refresh.
    fn refresh_walk_pin(&self) {
        if self.snapshot_epoch != u64::MAX {
            self.worker.epoch().refresh_pinned(self.snapshot_epoch);
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

/// The one snapshot version read (§4.9): copies into `buf` the version of
/// the record behind index value `value` that `snapshot_epoch` sees, and
/// returns its TID, or `None` if the key did not exist at that point in the
/// serial order.
///
/// The version can be the chain head, which a writer may overwrite in place
/// under the copy — always so with snapshots disabled, where
/// `snapshot_epoch` is `u64::MAX`. So the copy follows the §4.5 read
/// protocol, and if the copied TID word turns out to be past the snapshot,
/// the head moved on after the walk and the version this snapshot needs is
/// now on the chain: walk again.
///
/// # Safety
///
/// `value` must be a record pointer read from a live index by a worker whose
/// pinned `se_w` covers `snapshot_epoch`.
unsafe fn read_version(value: u64, snapshot_epoch: u64, buf: &mut Vec<u8>) -> Option<Tid> {
    // SAFETY: forwarded from the caller's contract.
    let rec = unsafe { &*(value as *const Record) };
    while let Some(version) = rec.snapshot_version(snapshot_epoch) {
        let word = version.read_consistent(buf);
        if word.tid().epoch() <= snapshot_epoch {
            return (!word.is_absent()).then(|| word.tid());
        }
    }
    None
}

impl<'w> Drop for SnapshotTxn<'w> {
    fn drop(&mut self) {
        self.worker.stats.snapshot_commits += 1;
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

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
        let yielded = snap.scan_versions(t, 32, Some(&pacer), |_, _, value| {
            pacer.note(value.len() as u64);
        });
        assert_eq!(yielded, 200);
        assert!(
            started.elapsed() >= Duration::from_millis(100),
            "walk was not throttled: {:?}",
            started.elapsed()
        );
    }

    /// Runs snapshot reads of one key through `read_with` and `scan_with`
    /// for about a second while a writer overwrites it with 4 KiB of one
    /// repeated byte, and returns `(values seen, torn values)`.
    fn snapshot_reads_under_overwrites(snapshots: bool) -> (u64, u64) {
        const VALUE: usize = 4096;
        let db = Database::open(
            SiloConfig::default()
                .with_epoch(silo_epoch::EpochConfig {
                    epoch_interval: Duration::from_millis(2),
                    snapshot_interval_epochs: 5,
                })
                .with_snapshots(snapshots),
        );
        let t = db.create_table("t").unwrap();
        let mut w = db.register_worker();
        let mut txn = w.begin();
        txn.write(t, b"key", &[0; VALUE]).unwrap();
        txn.commit().unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let (db, stop) = (Arc::clone(&db), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut w = db.register_worker();
                let mut value = [0; VALUE];
                for byte in (1..=u8::MAX).cycle() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    value.fill(byte);
                    let mut txn = w.begin();
                    txn.write(t, b"key", &value).unwrap();
                    let _ = txn.commit();
                }
            })
        };

        let uniform = |v: &[u8]| v.len() == VALUE && v.iter().all(|&b| b == v[0]);
        let (mut seen, mut torn) = (0u64, 0u64);
        let deadline = Instant::now() + Duration::from_secs(1);
        while Instant::now() < deadline {
            let mut snap = w.begin_snapshot();
            if let Some(ok) = snap.read_with(t, b"key", uniform) {
                seen += 1;
                torn += u64::from(!ok);
            }
            snap.scan_with(t, b"", None, None, |_, v| {
                seen += 1;
                torn += u64::from(!uniform(v));
            });
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        db.stop_epoch_advancer();
        (seen, torn)
    }

    #[test]
    fn snapshots_off_reads_never_tear() {
        // With snapshots off a snapshot reads the chain head, which the
        // writer overwrites in place under the copy.
        let (seen, torn) = snapshot_reads_under_overwrites(false);
        assert!(seen > 100, "only {seen} snapshot reads ran");
        assert_eq!(torn, 0, "{torn} of {seen} snapshot reads tore");
    }

    #[test]
    fn snapshots_on_reads_never_tear() {
        let (seen, torn) = snapshot_reads_under_overwrites(true);
        assert!(seen > 100, "only {seen} snapshot reads ran");
        assert_eq!(torn, 0, "{torn} of {seen} snapshot reads tore");
    }
}
