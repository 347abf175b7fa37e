//! Log output sinks: segmented log files and in-memory buffers.
//!
//! Logger threads coalesce every buffer drained in a group-commit round —
//! plus the trailing durable-epoch marker — into one [`LogSink::append`]
//! followed by one [`LogSink::sync`], so a sink sees exactly one write (and
//! for [`FileSink`] with fsync enabled, one `fdatasync`) per round, however
//! many workers published in it.
//!
//! Every fallible operation returns a typed [`SinkError`] instead of
//! panicking. Errors carry a *transient* bit: loggers retry transient
//! failures with capped exponential backoff and treat permanent ones as the
//! death of their sink (the logger marks itself failed; the process keeps
//! running). [`LogSink::append`] is atomic at this layer: on error, either no
//! byte of `data` reached the sink (safe to retry) or the error is permanent
//! (torn tail — recovery's end-of-stream handling takes over, §4.10).
//!
//! [`FileSink`] writes *segments* (`silo-log-<logger>-seg<seq>.bin`) and
//! tracks the largest record epoch each closed segment contains. Once a
//! checkpoint at epoch `ce` is durable, every segment whose records all have
//! epochs `≤ ce` is redundant (the checkpoint already covers those
//! transactions) and [`LogSink::truncate_obsolete`] deletes it — this is what
//! bounds log growth between checkpoints. Segments whose deletion fails stay
//! registered and are retried on the next truncation round.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

/// The category of a [`SinkError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkErrorKind {
    /// A real I/O error from the operating system.
    Io(std::io::ErrorKind),
    /// The device is out of space (`ENOSPC`). Transient from the logger's
    /// point of view: checkpoint-driven log truncation can free space.
    NoSpace,
    /// An error injected by a [`crate::fault::FaultPlan`].
    Injected,
    /// A setup failure (creating the log directory or the first segment)
    /// surfaced by [`crate::SiloLogger::install`].
    Setup,
}

/// A typed sink failure: what operation failed, why, and whether retrying
/// can help.
#[derive(Debug, Clone)]
pub struct SinkError {
    op: &'static str,
    kind: SinkErrorKind,
    transient: bool,
    detail: String,
}

impl SinkError {
    /// Classifies a real I/O error from operation `op`.
    ///
    /// `Interrupted`/`WouldBlock`/`TimedOut` are retryable; `StorageFull`
    /// maps to [`SinkErrorKind::NoSpace`] (retryable, truncation may free
    /// space); everything else is permanent.
    pub fn io(op: &'static str, e: &std::io::Error) -> SinkError {
        use std::io::ErrorKind as K;
        let (kind, transient) = match e.kind() {
            K::StorageFull => (SinkErrorKind::NoSpace, true),
            K::Interrupted | K::WouldBlock | K::TimedOut => (SinkErrorKind::Io(e.kind()), true),
            other => (SinkErrorKind::Io(other), false),
        };
        SinkError {
            op,
            kind,
            transient,
            detail: e.to_string(),
        }
    }

    /// A setup failure (directory/file creation) with context.
    pub fn setup(op: &'static str, detail: String) -> SinkError {
        SinkError {
            op,
            kind: SinkErrorKind::Setup,
            transient: false,
            detail,
        }
    }

    /// An injected error (fault plan).
    pub fn injected(op: &'static str, transient: bool) -> SinkError {
        SinkError {
            op,
            kind: SinkErrorKind::Injected,
            transient,
            detail: "injected fault".to_string(),
        }
    }

    /// An injected torn write: `torn` of `total` bytes reached the sink and
    /// the device then died. Permanent — retrying would duplicate the prefix.
    pub fn injected_torn(op: &'static str, torn: usize, total: usize) -> SinkError {
        SinkError {
            op,
            kind: SinkErrorKind::Injected,
            transient: false,
            detail: format!("injected torn write ({torn} of {total} bytes)"),
        }
    }

    /// An injected or real `ENOSPC`.
    pub fn no_space(op: &'static str, transient: bool) -> SinkError {
        SinkError {
            op,
            kind: SinkErrorKind::NoSpace,
            transient,
            detail: "no space left on device".to_string(),
        }
    }

    /// Whether a retry (after backoff) may succeed.
    pub fn is_transient(&self) -> bool {
        self.transient
    }

    /// The failed operation (`"append"`, `"sync"`, ...).
    pub fn op(&self) -> &'static str {
        self.op
    }

    /// The error category.
    pub fn kind(&self) -> SinkErrorKind {
        self.kind
    }

    /// Downgrades a transient error to permanent (e.g. when a failed append
    /// could not be rolled back, so a retry would corrupt the stream).
    fn permanent(mut self) -> SinkError {
        self.transient = false;
        self
    }
}

impl std::fmt::Display for SinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "log {} failed ({}): {:?}: {}",
            self.op,
            if self.transient {
                "transient"
            } else {
                "permanent"
            },
            self.kind,
            self.detail
        )
    }
}

impl std::error::Error for SinkError {}

/// The result of one [`LogSink::truncate_obsolete`] round.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TruncateOutcome {
    /// Segments successfully deleted.
    pub segments_deleted: u64,
    /// Bytes reclaimed by those deletions (measured before deleting).
    pub bytes_deleted: u64,
    /// Deletions that failed; the segments stay registered and are retried
    /// on the next round.
    pub delete_failures: u64,
}

/// Destination for log bytes. Each logger thread owns one sink.
///
/// The segmentation hooks have no-op defaults for sinks without segments
/// (in-memory).
pub trait LogSink {
    /// Appends `data` to the log (one call per group-commit round).
    ///
    /// Atomicity contract: on a *transient* error, no byte of `data` reached
    /// the sink and the same call may be retried; a *permanent* error means
    /// the sink is unusable (its tail may be torn — recovery treats a torn
    /// tail as end-of-stream).
    fn append(&mut self, data: &[u8]) -> Result<(), SinkError>;
    /// Makes previously appended data stable (fsync for files).
    fn sync(&mut self) -> Result<(), SinkError>;
    /// Bytes written so far.
    fn bytes_written(&self) -> u64;
    /// Tells the sink the largest epoch (transaction or durable-marker) it is
    /// about to receive in the current round, so segmented sinks can bound
    /// each segment's contents.
    fn observe_epoch(&mut self, _epoch: u64) {}
    /// Whether the current segment is full and should be rotated.
    fn should_rotate(&self) -> bool {
        false
    }
    /// Closes the current segment and opens the next one. Returns whether a
    /// rotation actually happened. A rotation failure leaves the current
    /// segment writable, so the caller can simply keep appending and retry
    /// the rotation later.
    fn rotate(&mut self) -> Result<bool, SinkError> {
        Ok(false)
    }
    /// Re-establishes the sink's descriptor after a **failed sync**,
    /// discarding any unsynced tail, so the caller can re-append the round
    /// and sync again.
    ///
    /// This exists because retrying `fsync` on the same descriptor is
    /// unsound ("fsyncgate"): after a failed fsync the kernel may mark the
    /// still-unwritten dirty pages clean, so a second fsync can report
    /// success without the data ever reaching the device. The only sound
    /// retry reopens the file and rewrites everything past the last
    /// *successfully synced* offset.
    ///
    /// Returns whether a reopen actually happened; sinks without descriptor
    /// semantics (in-memory) return `Ok(false)` and the caller falls back to
    /// a plain sync retry.
    fn reopen(&mut self) -> Result<bool, SinkError> {
        Ok(false)
    }
    /// Deletes closed segments made redundant by a durable checkpoint at
    /// `ckpt_epoch` (every epoch they contain is `≤ ckpt_epoch`). Failed
    /// deletions are counted in the outcome and retried next round.
    fn truncate_obsolete(&mut self, _ckpt_epoch: u64) -> TruncateOutcome {
        TruncateOutcome::default()
    }
}

/// A closed log segment retained on disk.
struct ClosedSegment {
    path: PathBuf,
    /// Largest epoch (record or marker) the segment contains; `None` for
    /// segments inherited from a previous process, resolved by scanning when
    /// truncation first considers them.
    max_epoch: Option<u64>,
}

/// A sink writing segmented log files under a directory, optionally fsyncing
/// on [`LogSink::sync`].
pub struct FileSink {
    file: File,
    path: PathBuf,
    fsync: bool,
    written: u64,
    /// Stable length of the current file: bytes of fully appended rounds.
    /// A failed append rolls the file back to this offset so a retry cannot
    /// duplicate a partial write.
    file_len: u64,
    /// Length of the current file known to be on the device: `file_len` as
    /// of the last successful [`LogSink::sync`]. After a *failed* sync,
    /// [`LogSink::reopen`] truncates back to this offset — anything beyond
    /// it may or may not have reached the device and must be rewritten.
    synced_len: u64,
    dir: PathBuf,
    logger_index: usize,
    /// Rotation threshold in bytes.
    segment_bytes: u64,
    next_seq: u64,
    current_max_epoch: u64,
    closed: Vec<ClosedSegment>,
}

/// The file name of segment `seq` for logger `logger_index`.
fn segment_name(logger_index: usize, seq: u64) -> String {
    format!("silo-log-{logger_index}-seg{seq:06}.bin")
}

/// Parses `silo-log-<i>-seg<seq>.bin`, returning `(logger_index, seq)`.
pub(crate) fn parse_segment_name(name: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix("silo-log-")?.strip_suffix(".bin")?;
    let (idx, seq) = rest.split_once("-seg")?;
    Some((idx.parse().ok()?, seq.parse().ok()?))
}

impl FileSink {
    /// Opens the sink for `logger_index` (one of `num_loggers` loggers) under
    /// `dir`, starting a fresh segment.
    ///
    /// Existing segments (from a previous, possibly crashed, process) are
    /// never overwritten: the sink resumes after the largest existing
    /// sequence number and registers the old files as closed segments so a
    /// later checkpoint can truncate them. Streams of logger indices that no
    /// longer exist (the previous run used more loggers) are *adopted* as
    /// closed segments by index modulo `num_loggers`, so truncation
    /// eventually reclaims them too; until then they keep capping the
    /// recovery horizon at their final durable marker (see
    /// [`crate::recover_directory`]).
    pub fn open(
        dir: &Path,
        logger_index: usize,
        num_loggers: usize,
        fsync: bool,
        segment_bytes: u64,
    ) -> Result<Self, SinkError> {
        std::fs::create_dir_all(dir).map_err(|e| {
            SinkError::setup(
                "open",
                format!("cannot create log directory {}: {e}", dir.display()),
            )
        })?;
        let num_loggers = num_loggers.max(1);
        let owns = |idx: usize| {
            idx == logger_index || (idx >= num_loggers && idx % num_loggers == logger_index)
        };
        let mut next_seq = 0u64;
        let mut closed = Vec::new();
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if let Some((idx, seq)) = parse_segment_name(name) {
                    if owns(idx) {
                        if idx == logger_index {
                            next_seq = next_seq.max(seq + 1);
                        }
                        closed.push(ClosedSegment {
                            path: entry.path(),
                            max_epoch: None,
                        });
                    }
                }
            }
        }
        let path = dir.join(segment_name(logger_index, next_seq));
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)
            .map_err(|e| {
                SinkError::setup(
                    "open",
                    format!("cannot create log segment {}: {e}", path.display()),
                )
            })?;
        Ok(FileSink {
            file,
            path,
            fsync,
            written: 0,
            file_len: 0,
            synced_len: 0,
            dir: dir.to_path_buf(),
            logger_index,
            segment_bytes: segment_bytes.max(1),
            next_seq: next_seq + 1,
            current_max_epoch: 0,
            closed,
        })
    }

    /// Rolls the current file back to the last stable length after a failed
    /// append, so a retry cannot duplicate a partial write. If the rollback
    /// itself fails the error is escalated to permanent.
    fn rollback_append(&mut self, err: SinkError) -> SinkError {
        let restore = self
            .file
            .set_len(self.file_len)
            .and_then(|()| self.file.seek(SeekFrom::Start(self.file_len)).map(|_| ()));
        match restore {
            Ok(()) => err,
            Err(_) => err.permanent(),
        }
    }
}

/// The largest epoch (transaction or durable-marker) found in a log file, by
/// streaming scan. Unreadable or corrupt files report `u64::MAX` so they are
/// never deleted.
fn scan_file_max_epoch(path: &Path) -> u64 {
    let Ok(file) = File::open(path) else {
        return u64::MAX;
    };
    let mut decoder = crate::record::StreamDecoder::new_skipping(std::io::BufReader::new(file));
    let mut max = 0u64;
    loop {
        match decoder.next_block() {
            Ok(Some(crate::record::Block::Txn(txn))) => max = max.max(txn.tid.epoch()),
            Ok(Some(crate::record::Block::EpochMarker(e))) => max = max.max(e),
            Ok(None) => return max,
            Err(_) => return u64::MAX,
        }
    }
}

impl LogSink for FileSink {
    fn append(&mut self, data: &[u8]) -> Result<(), SinkError> {
        if let Err(e) = self.file.write_all(data) {
            let err = SinkError::io("append", &e);
            return Err(self.rollback_append(err));
        }
        self.file_len += data.len() as u64;
        self.written += data.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), SinkError> {
        self.file.flush().map_err(|e| SinkError::io("sync", &e))?;
        if self.fsync {
            self.file
                .sync_data()
                .map_err(|e| SinkError::io("sync", &e))?;
        }
        self.synced_len = self.file_len;
        Ok(())
    }

    fn bytes_written(&self) -> u64 {
        self.written
    }

    fn observe_epoch(&mut self, epoch: u64) {
        self.current_max_epoch = self.current_max_epoch.max(epoch);
    }

    fn should_rotate(&self) -> bool {
        self.file_len >= self.segment_bytes
    }

    fn rotate(&mut self) -> Result<bool, SinkError> {
        if self.file_len == 0 {
            // Nothing in the current segment; rotation would only litter.
            return Ok(false);
        }
        // Make the outgoing segment fully stable before the cutover.
        self.file.flush().map_err(|e| SinkError::io("rotate", &e))?;
        let _ = self.file.sync_data();
        // Open the successor before swapping anything, so a failure here
        // leaves the current segment fully writable for a later retry.
        let path = self
            .dir
            .join(segment_name(self.logger_index, self.next_seq));
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)
            .map_err(|e| SinkError::io("rotate", &e))?;
        self.closed.push(ClosedSegment {
            path: std::mem::replace(&mut self.path, path),
            max_epoch: Some(self.current_max_epoch),
        });
        self.next_seq += 1;
        self.current_max_epoch = 0;
        self.file = file;
        self.file_len = 0;
        self.synced_len = 0;
        Ok(true)
    }

    fn reopen(&mut self) -> Result<bool, SinkError> {
        let mut file = OpenOptions::new()
            .write(true)
            .open(&self.path)
            .map_err(|e| SinkError::io("reopen", &e))?;
        // Discard everything past the last successful sync: those bytes may
        // have been dropped by the failed fsync (their dirty pages marked
        // clean without reaching the device), so they must be rewritten.
        file.set_len(self.synced_len)
            .map_err(|e| SinkError::io("reopen", &e))?;
        file.seek(SeekFrom::Start(self.synced_len))
            .map_err(|e| SinkError::io("reopen", &e))?;
        let lost = self.file_len.saturating_sub(self.synced_len);
        self.written = self.written.saturating_sub(lost);
        self.file_len = self.synced_len;
        self.file = file;
        Ok(true)
    }

    fn truncate_obsolete(&mut self, ckpt_epoch: u64) -> TruncateOutcome {
        let mut outcome = TruncateOutcome::default();
        self.closed.retain_mut(|closed| {
            let max_epoch = *closed
                .max_epoch
                .get_or_insert_with(|| scan_file_max_epoch(&closed.path));
            if max_epoch > ckpt_epoch {
                return true;
            }
            // Measure before deleting: after a successful remove_file the
            // metadata is gone and the reclaimed bytes would read as 0.
            let len = std::fs::metadata(&closed.path).map(|m| m.len());
            match std::fs::remove_file(&closed.path) {
                Ok(()) => {
                    outcome.segments_deleted += 1;
                    outcome.bytes_deleted += len.unwrap_or(0);
                    false
                }
                // Already gone (deleted by an adopting peer or an operator):
                // nothing to reclaim, stop tracking it.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => false,
                // Deletion failed: keep the segment registered so the next
                // truncation round retries it.
                Err(_) => {
                    outcome.delete_failures += 1;
                    true
                }
            }
        });
        outcome
    }
}

/// A sink appending to a shared in-memory buffer (the `Silo+tmpfs` stand-in).
pub struct MemorySink {
    buffer: Arc<Mutex<Vec<u8>>>,
    written: u64,
}

impl MemorySink {
    /// Creates a sink appending to `buffer`.
    pub fn new(buffer: Arc<Mutex<Vec<u8>>>) -> Self {
        MemorySink { buffer, written: 0 }
    }
}

impl LogSink for MemorySink {
    fn append(&mut self, data: &[u8]) -> Result<(), SinkError> {
        self.buffer.lock().extend_from_slice(data);
        self.written += data.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), SinkError> {
        Ok(())
    }

    fn bytes_written(&self) -> u64 {
        self.written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{encode_epoch_marker, encode_txn};
    use crate::tests::{as_writes, scratch_dir, sealed};
    use silo_core::TableId;
    use silo_tid::Tid;

    #[test]
    fn memory_sink_appends() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut sink = MemorySink::new(Arc::clone(&buf));
        sink.append(b"hello ").unwrap();
        sink.append(b"world").unwrap();
        sink.sync().unwrap();
        assert_eq!(&*buf.lock(), b"hello world");
        assert_eq!(sink.bytes_written(), 11);
    }

    #[test]
    fn file_sink_writes_its_first_segment() {
        let dir = scratch_dir("log-test");
        {
            let mut sink = FileSink::open(&dir, 0, 1, true, 1 << 20).unwrap();
            sink.append(b"0123456789").unwrap();
            sink.sync().unwrap();
            assert_eq!(sink.bytes_written(), 10);
            assert!(!sink.should_rotate());
        }
        assert_eq!(
            std::fs::read(dir.join(segment_name(0, 0))).unwrap(),
            b"0123456789"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_discards_the_unsynced_tail_and_resumes_at_the_synced_offset() {
        let dir = scratch_dir("reopen-test");
        let path = dir.join(segment_name(0, 0));
        let mut sink = FileSink::open(&dir, 0, 1, false, 1 << 20).unwrap();
        sink.append(b"AAAA").unwrap();
        sink.sync().unwrap();
        // A round lands in the page cache but its sync fails: reopen must
        // drop exactly that round and rewind the accounting.
        sink.append(b"BBBB").unwrap();
        assert_eq!(sink.bytes_written(), 8);
        assert!(sink.reopen().unwrap());
        assert_eq!(sink.bytes_written(), 4, "unsynced bytes are uncounted");
        assert_eq!(std::fs::read(&path).unwrap(), b"AAAA");
        // The retried round appends at the synced offset, not after the
        // discarded tail.
        sink.append(b"CCCC").unwrap();
        sink.sync().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"AAAACCCC");
        // Reopen right after a successful sync is a no-op on the contents.
        assert!(sink.reopen().unwrap());
        assert_eq!(std::fs::read(&path).unwrap(), b"AAAACCCC");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_under_a_regular_file_is_a_typed_setup_error() {
        let dir = scratch_dir("no-such-dir");
        let blocker = dir.join("not-a-directory");
        std::fs::write(&blocker, b"").unwrap();
        let err = match FileSink::open(&blocker.join("logs"), 0, 1, false, 1 << 20) {
            Ok(_) => panic!("opening a sink under a regular file must fail"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), SinkErrorKind::Setup);
        assert!(!err.is_transient());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_names_roundtrip() {
        assert_eq!(parse_segment_name(&segment_name(3, 17)), Some((3, 17)));
        assert_eq!(parse_segment_name("silo-log-0-seg000000.bin"), Some((0, 0)));
        assert_eq!(parse_segment_name("silo-log-0.bin"), None);
        assert_eq!(parse_segment_name("unrelated.bin"), None);
    }

    /// One sealed round holding a transaction at `epoch`.
    fn txn_bytes(epoch: u64, key: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        let writes: Vec<(TableId, &[u8], Option<&[u8]>)> = vec![(0, key, Some(b"v".as_ref()))];
        encode_txn(&mut buf, Tid::new(epoch, 1), as_writes(&writes), false);
        sealed(&buf)
    }

    /// A previous process's segment: a transaction and a marker at `epoch`.
    fn old_segment(epoch: u64) -> Vec<u8> {
        let mut old = Vec::new();
        let writes: Vec<(TableId, &[u8], Option<&[u8]>)> = vec![(0, b"old", Some(b"v".as_ref()))];
        encode_txn(&mut old, Tid::new(epoch, 1), as_writes(&writes), false);
        encode_epoch_marker(&mut old, epoch);
        sealed(&old)
    }

    #[test]
    fn segmented_sink_rotates_and_truncates_by_epoch() {
        let dir = scratch_dir("seg-test");
        {
            let mut sink = FileSink::open(&dir, 0, 1, false, 64).unwrap();
            assert!(!sink.rotate().unwrap(), "an empty segment is not rotated");
            // Segment 0: epochs up to 3.
            sink.observe_epoch(3);
            sink.append(&txn_bytes(3, b"aaaa")).unwrap();
            sink.append(&[0u8; 0]).unwrap();
            while !sink.should_rotate() {
                sink.append(&txn_bytes(2, b"pad")).unwrap();
                sink.observe_epoch(2);
            }
            assert!(sink.rotate().unwrap());
            // Segment 1: epoch 9.
            sink.observe_epoch(9);
            sink.append(&txn_bytes(9, b"bbbb")).unwrap();
            sink.sync().unwrap();

            // A checkpoint at epoch 5 covers segment 0 but not segment 1.
            let outcome = sink.truncate_obsolete(5);
            assert_eq!(outcome.segments_deleted, 1);
            assert!(
                outcome.bytes_deleted > 0,
                "reclaimed bytes are measured before deletion"
            );
            assert_eq!(outcome.delete_failures, 0);
            let outcome = sink.truncate_obsolete(5);
            assert_eq!(outcome.segments_deleted, 0, "already truncated");
        }
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec![segment_name(0, 1)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_stops_tracking_segments_already_deleted_externally() {
        let dir = scratch_dir("seg-gone");
        let mut sink = FileSink::open(&dir, 0, 1, false, 8).unwrap();
        sink.observe_epoch(1);
        sink.append(&txn_bytes(1, b"aaaaaaaa")).unwrap();
        assert!(sink.rotate().unwrap());
        // Someone else removes the closed segment out from under us.
        std::fs::remove_file(dir.join(segment_name(0, 0))).unwrap();
        let outcome = sink.truncate_obsolete(u64::MAX);
        assert_eq!(outcome.segments_deleted, 0);
        assert_eq!(outcome.delete_failures, 0, "NotFound is not a failure");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segmented_sink_adopts_orphan_streams_of_removed_loggers() {
        // A previous run used 4 loggers; this one uses 2. The orphan streams
        // (indices 2 and 3) must be adopted — index modulo the new count —
        // so checkpoint truncation can reclaim them.
        let dir = scratch_dir("seg-orphan");
        std::fs::write(dir.join(segment_name(2, 0)), old_segment(3)).unwrap();
        std::fs::write(dir.join(segment_name(3, 0)), old_segment(3)).unwrap();
        std::fs::write(dir.join(segment_name(5, 0)), old_segment(3)).unwrap();

        let mut sink0 = FileSink::open(&dir, 0, 2, false, 1 << 20).unwrap();
        let mut sink1 = FileSink::open(&dir, 1, 2, false, 1 << 20).unwrap();
        // Logger 0 adopts stream 2; logger 1 adopts streams 3 and 5.
        assert_eq!(sink0.truncate_obsolete(3).segments_deleted, 1);
        assert_eq!(sink1.truncate_obsolete(3).segments_deleted, 2);
        assert!(!dir.join(segment_name(2, 0)).exists());
        assert!(!dir.join(segment_name(3, 0)).exists());
        assert!(!dir.join(segment_name(5, 0)).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segmented_sink_resumes_after_existing_segments_and_scans_them() {
        let dir = scratch_dir("seg-resume");
        // A "previous process" left a segment with epochs up to 4 plus a
        // durable marker at 4.
        std::fs::write(dir.join(segment_name(0, 0)), old_segment(4)).unwrap();
        // And an empty segment (crash right after rotation).
        std::fs::write(dir.join(segment_name(0, 1)), b"").unwrap();

        let mut sink = FileSink::open(&dir, 0, 1, false, 1 << 20).unwrap();
        sink.observe_epoch(10);
        sink.append(&txn_bytes(10, b"new")).unwrap();
        sink.sync().unwrap();
        assert!(
            std::fs::metadata(dir.join(segment_name(0, 2)))
                .unwrap()
                .len()
                > 0,
            "resumes after existing seq"
        );

        // Truncating at epoch 3 keeps the old segment (its max epoch is 4);
        // truncating at 4 deletes it together with the empty one.
        assert_eq!(
            sink.truncate_obsolete(3).segments_deleted,
            1,
            "only the empty segment goes"
        );
        assert_eq!(sink.truncate_obsolete(4).segments_deleted, 1);
        assert!(dir.join(segment_name(0, 2)).exists());
        assert!(!dir.join(segment_name(0, 0)).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_corrupt_inherited_segment_is_never_deleted() {
        // A segment the decoder cannot vouch for might hold anything; its
        // max epoch reads as unbounded so no checkpoint makes it redundant.
        let dir = scratch_dir("seg-corrupt");
        let mut damaged = old_segment(2);
        let last = damaged.len() - 1;
        damaged[last] ^= 0x01;
        std::fs::write(dir.join(segment_name(0, 0)), damaged).unwrap();
        let mut sink = FileSink::open(&dir, 0, 1, false, 1 << 20).unwrap();
        assert_eq!(sink.truncate_obsolete(u64::MAX - 1).segments_deleted, 0);
        assert!(dir.join(segment_name(0, 0)).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
