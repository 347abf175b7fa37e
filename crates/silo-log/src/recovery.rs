//! Crash recovery: reconstruct a database state from a checkpoint plus the
//! redo-log tail (paper §4.10 "To recover, Silo would read the most recent
//! `d_l` for each logger, compute `D = min d_l`, and then replay the logs,
//! ignoring entries for transactions whose TIDs are from epochs after `D`.").
//!
//! With checkpoints the horizon story becomes: load the latest *complete*
//! checkpoint (epoch `ce`; every transaction with epoch `≤ ce` is reflected
//! in it), compute the durable epoch `D = max(ce, min_l max-marker)` from the
//! surviving log segments, and replay exactly the transactions with
//! `ce < epoch(tid) ≤ D` — the log *tail*.
//!
//! Every table is built once, bottom-up, by merging sorted runs (the shape
//! of MPSM: sort each run on its own, then merge instead of installing by
//! random access):
//!
//! 1. After the horizon pre-scan, one thread per log stream decodes that
//!    stream once, keeping each tail write's key and value in the stream's
//!    arena and an index entry in its table's list ([`Tail`]).
//! 2. Each table's list, all streams together, is sorted by (key, TID)
//!    keeping only each key's largest TID, `replay_threads` tables at a
//!    time.
//! 3. The checkpoint holds each table as one run in key order. Each table's
//!    run is merged with its sorted tail into one [`silo_core::bulk_load`]
//!    ([`Run`]): a tail value replaces the row, a tail delete drops it, a
//!    key only the tail holds is inserted unless its last write is a
//!    delete, and a table the checkpoint does not hold is built from its
//!    tail alone.
//!
//! Records keep their original TIDs, and no absent record is ever built.
//! Each slice is read once, with its strict checks, and no table is
//! published until every slice has passed. The tail is held in memory while
//! the tables build; the checkpoint cadence bounds it.
//!
//! There is one entry point: [`recover_directory`] runs this over the
//! checkpoint and segment files of a durability root.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use silo_core::{BulkLoadError, Database, Table, TableId, TableLoad, Tid};

use crate::record::{BlockRef, DecodeError, StreamDecoder};
use crate::sink::parse_segment_name;

/// Errors produced during recovery.
#[derive(Debug)]
pub enum RecoveryError {
    /// A log stream could not be decoded.
    Decode(DecodeError),
    /// A log file could not be read.
    Io(std::io::Error),
    /// Applying the recovered state to the database failed (e.g. the schema
    /// was not recreated before recovery).
    Apply(String),
    /// The newest checkpoint failed verification (`error` is `InvalidData`
    /// for a damaged manifest or slice). Nothing was loaded: the log before
    /// the checkpoint is truncated, so no other state is the durable one.
    Checkpoint {
        /// The checkpoint's epoch.
        epoch: u64,
        /// Why it was rejected.
        error: std::io::Error,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Decode(e) => write!(f, "log decode error: {e}"),
            RecoveryError::Io(e) => write!(f, "log read error: {e}"),
            RecoveryError::Apply(e) => write!(f, "recovery apply error: {e}"),
            RecoveryError::Checkpoint { epoch, error } => {
                write!(
                    f,
                    "checkpoint at epoch {epoch} failed verification: {error}"
                )
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<DecodeError> for RecoveryError {
    fn from(e: DecodeError) -> Self {
        RecoveryError::Decode(e)
    }
}

impl From<std::io::Error> for RecoveryError {
    fn from(e: std::io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

/// Walks one logger's stream of segment files, handing each block of each
/// whole envelope to `f`. A malformed envelope (failed checksum, bad length,
/// unknown tag) ends the stream — it is the corrupt tail of §4.10, everything
/// durably acknowledged precedes it — instead of failing recovery; real I/O
/// errors still do. Returns the bytes of the envelopes walked and whether the
/// stream ended at a corrupt one.
fn walk_stream(
    paths: &[PathBuf],
    mut f: impl FnMut(BlockRef<'_>),
) -> Result<(u64, bool), RecoveryError> {
    let mut decoder = StreamDecoder::new(ChainedFiles::new(paths));
    loop {
        match decoder.next_envelope_with(true, &mut f) {
            Ok(true) => {}
            Ok(false) => return Ok((decoder.bytes_consumed(), false)),
            Err(e @ DecodeError::Io(_)) => return Err(e.into()),
            Err(_) => return Ok((decoder.bytes_consumed(), true)),
        }
    }
}

/// Runs `work(i)` for each `i` in `0..n`, each on its own scoped thread, and
/// returns the results in order, or the first error.
pub(crate) fn in_parallel<T: Send, E: Send>(
    n: usize,
    work: impl Fn(usize) -> Result<T, E> + Sync,
) -> Result<Vec<T>, E> {
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..n).map(|i| scope.spawn(move || work(i))).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// The log segments under `dir`, grouped into one logical stream per logger
/// (sorted by logger index), each in sequence order.
fn log_streams(dir: &Path) -> Result<Vec<Vec<PathBuf>>, std::io::Error> {
    let mut by_logger: BTreeMap<usize, Vec<(u64, PathBuf)>> = BTreeMap::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some((logger, seq)) = name.to_str().and_then(parse_segment_name) {
            by_logger
                .entry(logger)
                .or_default()
                .push((seq, entry.path()));
        }
    }
    Ok(by_logger
        .into_values()
        .map(|mut files| {
            files.sort();
            files.into_iter().map(|(_, path)| path).collect()
        })
        .collect())
}

/// A reader chaining a logger's segment files into one logical stream.
struct ChainedFiles<'a> {
    paths: std::slice::Iter<'a, PathBuf>,
    current: Option<BufReader<std::fs::File>>,
}

impl<'a> ChainedFiles<'a> {
    fn new(paths: &'a [PathBuf]) -> Self {
        ChainedFiles {
            paths: paths.iter(),
            current: None,
        }
    }
}

impl std::io::Read for ChainedFiles<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            if let Some(reader) = &mut self.current {
                let n = reader.read(buf)?;
                if n > 0 {
                    return Ok(n);
                }
            }
            match self.paths.next() {
                Some(path) => {
                    self.current = Some(BufReader::new(std::fs::File::open(path)?));
                }
                None => return Ok(0),
            }
        }
    }
}

/// Knobs for [`recover_directory`].
#[derive(Debug, Clone)]
pub struct RecoveryOptions {
    /// Threads that sort the tables' log tails, then read checkpoint slices
    /// and build the tables, each from its checkpoint run merged with its
    /// tail. The log itself is decoded by one thread per log stream,
    /// whatever this is.
    pub replay_threads: usize,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions { replay_threads: 4 }
    }
}

/// What recovery did, with enough detail to reason about restart time: how
/// much came from the checkpoint, how much log tail was replayed, and how
/// long each phase took.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Epoch of the checkpoint restored (0 = no checkpoint found).
    pub checkpoint_epoch: u64,
    /// Records restored from the checkpoint.
    pub checkpoint_records: u64,
    /// Checkpoint bytes read.
    pub checkpoint_bytes: u64,
    /// Wall-clock microseconds building the tables: reading the checkpoint
    /// slices and merging the log tail into them.
    pub checkpoint_micros: u64,
    /// The recovered durable horizon `D`: every transaction with
    /// `epoch ≤ D` is restored; nothing newer is.
    pub durable_epoch: u64,
    /// Log-tail transactions replayed (`checkpoint_epoch < epoch ≤ D`).
    pub replayed_txns: u64,
    /// Writes of the replayed transactions.
    pub replayed_writes: u64,
    /// Transactions skipped because their epoch was beyond the horizon.
    pub skipped_txns: u64,
    /// Transactions skipped because the checkpoint already covers their epoch
    /// (their segments simply had not been truncated yet).
    pub covered_txns: u64,
    /// Log bytes scanned during replay (the surviving segments — the tail).
    pub log_bytes_scanned: u64,
    /// Number of surviving log files scanned.
    pub log_files: u64,
    /// Wall-clock microseconds reading the log tail: the horizon pre-scan,
    /// the decode and the sort.
    pub replay_micros: u64,
    /// Log streams whose tail was malformed (failed checksum, bad tag) and
    /// treated as the torn tail of §4.10 — ignored past the last good block.
    pub corrupt_log_tails: u64,
}

/// The error for a recovered write to a table the schema does not have.
pub(crate) fn unknown_table(id: TableId) -> RecoveryError {
    RecoveryError::Apply(format!(
        "table id {id} does not exist; recreate the schema before recovery"
    ))
}

/// Full crash recovery from a durability root directory: reads the log
/// tail of the latest complete checkpoint (one thread per logger stream),
/// sorts each table's tail, builds every table from its checkpoint run
/// merged with its tail on `replay_threads` threads, and finally
/// fast-forwards the epoch manager past the recovered horizon so
/// post-recovery commits (and their log records) sort after everything
/// recovered.
///
/// The database must be freshly opened with its tables recreated (same
/// [`TableId`]s as before the crash), empty, and with no concurrent
/// transactional access.
///
/// A newest checkpoint whose manifest or slices are damaged (see
/// [`crate::checkpoint`]) is [`RecoveryError::Checkpoint`], returned with
/// nothing loaded: each slice is checked as it is read, and no table is
/// published until every slice has passed.
///
/// The horizon is the minimum over **all** streams found under `dir` —
/// including streams of logger indices a previous run used but a
/// reconfigured run no longer writes. Such stale streams cap the horizon at
/// their final durable marker until a checkpoint truncates them (live sinks
/// adopt orphan streams at install, so the first durable checkpoint reclaims
/// them); keep the logger count stable across restarts, or checkpoint
/// promptly after shrinking it, to avoid under-recovering a later crash.
pub fn recover_directory(
    db: &Arc<Database>,
    dir: &Path,
    options: &RecoveryOptions,
) -> Result<RecoveryReport, RecoveryError> {
    let mut report = RecoveryReport::default();

    // The newest checkpoint's manifest. An older one is no fallback: the log
    // before the newest is truncated.
    let checkpoint = crate::checkpoint::newest_checkpoint(dir)
        .map(|(epoch, info)| info.map_err(|error| RecoveryError::Checkpoint { epoch, error }))
        .transpose()?;
    if let Some(info) = &checkpoint {
        report.checkpoint_epoch = info.epoch;
        report.checkpoint_records = info.slices.iter().map(|(_, _, records)| records).sum();
        report.checkpoint_bytes = info.slices.iter().map(|(_, bytes, _)| bytes).sum();
    }
    let ce = report.checkpoint_epoch;

    // The log tail: each stream is read twice, by the horizon pre-scan, then
    // by its decode, one thread per stream each time.
    let streams = log_streams(dir)?;
    report.log_files = streams.iter().map(|paths| paths.len() as u64).sum();
    let replay_start = Instant::now();
    let horizons = in_parallel(streams.len(), |s| {
        let mut durable = 0u64;
        let (_, corrupt) = walk_stream(&streams[s], |block| {
            if let BlockRef::EpochMarker(epoch) = block {
                durable = durable.max(epoch);
            }
        })?;
        Ok::<_, RecoveryError>((durable, corrupt))
    })?;
    report.corrupt_log_tails = horizons.iter().filter(|(_, corrupt)| *corrupt).count() as u64;
    let durable_epoch = horizons
        .iter()
        .map(|(durable, _)| *durable)
        .min()
        .unwrap_or(0)
        .max(ce);
    report.durable_epoch = durable_epoch;

    let tables = db.table_ids().len();
    let decoded = in_parallel(streams.len(), |s| {
        decode_tail(&streams[s], s, tables, ce, durable_epoch)
    })?;
    let mut tail = Tail::default();
    tail.tables.resize_with(tables, Vec::new);
    for (tally, arena, by_table) in decoded {
        report.replayed_txns += tally.replayed_txns;
        report.replayed_writes += tally.replayed_writes;
        report.skipped_txns += tally.skipped_txns;
        report.covered_txns += tally.covered_txns;
        report.log_bytes_scanned += tally.log_bytes_scanned;
        tail.arenas.push(arena);
        for (all, writes) in tail.tables.iter_mut().zip(by_table) {
            all.extend(writes);
        }
    }
    tail.sort(options.replay_threads);
    report.replay_micros = replay_start.elapsed().as_micros() as u64;

    // The one install path: every table built bottom-up, published only
    // once every slice has passed.
    let build_start = Instant::now();
    crate::checkpoint::build_tables(db, checkpoint.as_ref(), &tail, options.replay_threads)?;
    report.checkpoint_micros = build_start.elapsed().as_micros() as u64;

    // Fast-forward the epochs past everything recovered, far enough that the
    // next snapshot epoch covers the whole recovered state (§4.9:
    // `SE = snap(E − k)`); post-recovery commits, markers and snapshots all
    // sort after the recovered horizon.
    let k = db.epochs().config().snapshot_interval_epochs;
    db.epochs().advance_to(durable_epoch + 2 * k);

    Ok(report)
}

/// Decodes stream `stream` once: keeps the writes of its tail transactions
/// (`ce < epoch ≤ durable_epoch`), their keys and values in one arena, each
/// in its table's list. A write to a table id not below `tables` is an
/// error. The report counts what the stream held.
fn decode_tail(
    paths: &[PathBuf],
    stream: usize,
    tables: usize,
    ce: u64,
    durable_epoch: u64,
) -> Result<(RecoveryReport, Vec<u8>, Vec<Vec<TailWrite>>), RecoveryError> {
    let mut tally = RecoveryReport::default();
    let mut arena = Vec::new();
    let mut by_table = vec![Vec::new(); tables];
    let mut unknown = None;
    // The pre-scan counted corruption; the decode stops where it stopped.
    let (bytes, _) = walk_stream(paths, |block| {
        let BlockRef::Txn(tid, writes) = block else {
            return;
        };
        let epoch = tid.epoch();
        if epoch <= ce {
            tally.covered_txns += 1;
        } else if epoch > durable_epoch {
            tally.skipped_txns += 1;
        } else {
            tally.replayed_txns += 1;
            for (table, key, value) in writes {
                let Some(writes) = by_table.get_mut(table as usize) else {
                    unknown.get_or_insert(table);
                    continue;
                };
                writes.push(TailWrite::new(stream, &mut arena, tid, key, value));
                tally.replayed_writes += 1;
            }
        }
    })?;
    if let Some(table) = unknown {
        return Err(unknown_table(table));
    }
    tally.log_bytes_scanned = bytes;
    Ok((tally, arena, by_table))
}

/// Key bytes a [`TailWrite`] holds inline, so that the sort compares most
/// keys without reading an arena.
const PREFIX: usize = 16;

/// One write of the log tail, its key and value in its stream's arena.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TailWrite {
    /// The key's first [`PREFIX`] bytes, zero-padded, big-endian: ordering
    /// these orders the keys, and keys no longer than `PREFIX` are equal
    /// when these and their lengths are.
    prefix: u128,
    tid: Tid,
    stream: u32,
    /// Where the key starts in the arena; the value follows it.
    at: usize,
    key_len: u32,
    /// The value's length, or `None` for a delete.
    value_len: Option<u32>,
}

impl TailWrite {
    /// The write of `key` and `value` at `tid`, both appended to `arena`.
    fn new(stream: usize, arena: &mut Vec<u8>, tid: Tid, key: &[u8], value: Option<&[u8]>) -> Self {
        let at = arena.len();
        arena.extend_from_slice(key);
        arena.extend_from_slice(value.unwrap_or_default());
        let mut prefix = [0; PREFIX];
        let inline = key.len().min(PREFIX);
        prefix[..inline].copy_from_slice(&key[..inline]);
        TailWrite {
            prefix: u128::from_be_bytes(prefix),
            tid,
            stream: stream as u32,
            at,
            key_len: key.len() as u32,
            value_len: value.map(|value| value.len() as u32),
        }
    }
}

/// The log tail: the keys and values of its writes, in one arena per
/// stream, and per table its writes, each key once, at its largest TID, in
/// key order.
#[derive(Debug, Default)]
pub(crate) struct Tail {
    arenas: Vec<Vec<u8>>,
    tables: Vec<Vec<TailWrite>>,
}

impl Tail {
    fn key(&self, write: &TailWrite) -> &[u8] {
        &self.arenas[write.stream as usize][write.at..][..write.key_len as usize]
    }

    fn value(&self, write: &TailWrite) -> Option<&[u8]> {
        let arena = &self.arenas[write.stream as usize][write.at + write.key_len as usize..];
        write.value_len.map(|len| &arena[..len as usize])
    }

    /// Orders two writes of one table by key.
    fn order(&self, a: &TailWrite, b: &TailWrite) -> Ordering {
        a.prefix.cmp(&b.prefix).then_with(|| {
            if a.key_len.max(b.key_len) as usize <= PREFIX {
                // Equal zero-padded prefixes: the shorter key is a prefix of
                // the longer one.
                a.key_len.cmp(&b.key_len)
            } else {
                self.key(a).cmp(self.key(b))
            }
        })
    }

    /// Sorts each table's writes by (key, TID descending) and keeps the
    /// first of each key, its largest TID: one table at a time on each of
    /// `threads` threads.
    fn sort(&mut self, threads: usize) {
        let tables: Vec<_> = std::mem::take(&mut self.tables)
            .into_iter()
            .map(Mutex::new)
            .collect();
        let next = AtomicUsize::new(0);
        let sorted = in_parallel(threads.clamp(1, tables.len().max(1)), |_| {
            while let Some(writes) = tables.get(next.fetch_add(1, AtomicOrdering::Relaxed)) {
                let mut writes = writes.lock();
                writes.sort_unstable_by(|a, b| self.order(a, b).then(b.tid.cmp(&a.tid)));
                writes.dedup_by(|later, first| self.order(later, first) == Ordering::Equal);
            }
            Ok::<_, ()>(())
        });
        sorted.expect("sorting fails nothing");
        self.tables = tables.into_iter().map(Mutex::into_inner).collect();
    }
}

/// One table being built bottom-up: its checkpoint run, if it has one,
/// merged with its tail. Every tail write is newer than every checkpoint row
/// (its epoch is past the checkpoint's), so the tail wins each key both
/// hold.
pub(crate) struct Run<'t> {
    pub(crate) table: TableId,
    load: TableLoad<'t>,
    tail: &'t Tail,
    /// The table's tail writes not pushed yet.
    writes: &'t [TailWrite],
}

impl<'t> Run<'t> {
    /// Claims the empty `table` of `tables` and starts its build.
    pub(crate) fn start(
        tables: &'t [(TableId, Arc<Table>, AtomicBool)],
        tail: &'t Tail,
        table: TableId,
    ) -> Result<Self, RecoveryError> {
        let Some((_, target, claimed)) = tables.iter().find(|(id, ..)| *id == table) else {
            return Err(unknown_table(table));
        };
        if claimed.swap(true, AtomicOrdering::Relaxed) {
            return Err(run_error(table, BulkLoadError::NotEmpty));
        }
        // SAFETY: recovery-mode exclusivity — no transactions run during
        // recovery.
        let load = unsafe { silo_core::bulk_load(target) }.map_err(|e| run_error(table, e))?;
        Ok(Run {
            table,
            load,
            tail,
            writes: &tail.tables[table as usize],
        })
    }

    /// Pushes, in key order, the tail keys up to the checkpoint row `row`'s
    /// key (every key left if there is no `row`), none whose last write
    /// deletes it; then `row`, unless the tail wrote its key.
    pub(crate) fn push(&mut self, row: Option<(&[u8], Tid, &[u8])>) -> Result<(), RecoveryError> {
        let upto = row.map(|(key, ..)| key);
        while let Some(write) = self.writes.first() {
            let key = self.tail.key(write);
            if upto.is_some_and(|upto| key > upto) {
                break;
            }
            self.writes = &self.writes[1..];
            if let Some(value) = self.tail.value(write) {
                self.load
                    .push(key, write.tid, value)
                    .map_err(|e| run_error(self.table, e))?;
            }
            if upto == Some(key) {
                return Ok(());
            }
        }
        match row {
            Some((key, tid, value)) => self.load.push(key, tid, value),
            None => Ok(()),
        }
        .map_err(|e| run_error(self.table, e))
    }

    /// Pushes the tail keys above the last checkpoint row, and returns the
    /// unpublished load.
    pub(crate) fn finish(mut self) -> Result<(TableId, TableLoad<'t>), RecoveryError> {
        self.push(None)?;
        Ok((self.table, self.load))
    }
}

/// The recovery error for a run of `table` its bulk load refused.
pub(crate) fn run_error(table: TableId, error: BulkLoadError) -> RecoveryError {
    RecoveryError::Apply(match error {
        BulkLoadError::NotEmpty => {
            format!("table {table} is not empty: recovery needs empty tables, one run each")
        }
        error => format!("checkpoint run of table {table}: {error}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{begin_sealed, encode_epoch_marker, encode_txn, seal};
    use crate::tests::{
        as_writes, assert_no_absent_record, scratch_dir, sealed, write_segments, ScratchDir,
    };
    use silo_core::{SiloConfig, Tid};

    fn txn_block(tid: Tid, table: TableId, key: &[u8], value: Option<&[u8]>) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_txn(&mut buf, tid, as_writes(&[(table, key, value)]), false);
        buf
    }

    fn marker(epoch: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_epoch_marker(&mut buf, epoch);
        buf
    }

    /// One sealed group-commit round holding `blocks`.
    fn round(blocks: &[Vec<u8>]) -> Vec<u8> {
        sealed(&blocks.concat())
    }

    /// Writes `streams` as one segment file per logger and recovers them
    /// into a fresh database with one table (id 0).
    fn recover(streams: &[Vec<u8>]) -> (Arc<Database>, RecoveryReport) {
        let dir = scratch_dir("recover");
        write_segments(&dir, streams);
        crate::tests::recovered("t", &dir)
    }

    fn read(db: &Arc<Database>, key: &[u8]) -> Option<Vec<u8>> {
        let mut w = db.register_worker();
        let mut txn = w.begin();
        let value = txn.read(0, key).unwrap();
        txn.commit().unwrap();
        value
    }

    /// Every live version of table 0 with its TID, via a snapshot walk.
    fn versions(db: &Arc<Database>) -> Vec<(Vec<u8>, Tid, Vec<u8>)> {
        let mut w = db.register_worker();
        let mut snap = w.begin_snapshot();
        let mut out = Vec::new();
        snap.scan_versions(0, 64, None, |key, tid, value| {
            out.push((key.to_vec(), tid, value.to_vec()));
        });
        snap.finish();
        out
    }

    #[test]
    fn durable_epoch_is_min_across_streams() {
        let s1 = [round(&[marker(5)]), round(&[marker(9)])].concat();
        let s2 = round(&[marker(7)]);
        assert_eq!(recover(&[s1, s2]).1.durable_epoch, 7);
    }

    #[test]
    fn transactions_after_horizon_are_skipped() {
        // One logger is behind: the recovered prefix respects the *minimum*
        // durable epoch, whatever the faster stream already recorded.
        let fast = round(&[
            txn_block(Tid::new(2, 1), 0, b"a", Some(b"1")),
            txn_block(Tid::new(6, 1), 0, b"b", Some(b"too-new")),
            marker(6),
        ]);
        let slow = round(&[txn_block(Tid::new(3, 1), 0, b"c", Some(b"3")), marker(3)]);
        let (db, report) = recover(&[fast, slow]);
        assert_eq!(report.durable_epoch, 3);
        assert_eq!(report.replayed_txns, 2);
        assert_eq!(report.skipped_txns, 1);
        assert_eq!(read(&db, b"a"), Some(b"1".to_vec()));
        assert_eq!(read(&db, b"c"), Some(b"3".to_vec()));
        assert_eq!(
            read(&db, b"b"),
            None,
            "epoch-6 transaction is beyond the durable horizon and must not be recovered"
        );
    }

    #[test]
    fn same_key_resolves_to_largest_tid_across_streams() {
        // The newest action on `k` is a delete, and it sits in a different
        // stream than the writes it supersedes.
        let s1 = round(&[
            txn_block(Tid::new(2, 7), 0, b"k", Some(b"v2")),
            txn_block(Tid::new(2, 3), 0, b"k", Some(b"v1")),
            txn_block(Tid::new(2, 9), 0, b"j", Some(b"j-new")),
            marker(10),
        ]);
        let s2 = round(&[
            txn_block(Tid::new(3, 1), 0, b"k", None),
            txn_block(Tid::new(2, 5), 0, b"j", Some(b"j-old")),
            marker(10),
        ]);
        let (db, report) = recover(&[s1, s2]);
        assert_eq!(report.replayed_txns, 5);
        assert_eq!(read(&db, b"k"), None, "the delete is the newest action");
        assert_eq!(read(&db, b"j"), Some(b"j-new".to_vec()));
        assert_eq!(db.table(0).approximate_len(), 1);
    }

    #[test]
    fn recovery_keeps_original_tids_and_fast_forwards_the_epoch() {
        let s = round(&[
            txn_block(Tid::new(1, 1), 0, b"alpha", Some(b"1")),
            txn_block(Tid::new(1, 2), 0, b"beta", Some(b"2")),
            txn_block(Tid::new(2, 1), 0, b"alpha", Some(b"updated")),
            txn_block(Tid::new(2, 2), 0, b"gone", Some(b"x")),
            txn_block(Tid::new(2, 3), 0, b"gone", None),
            marker(4),
        ]);
        let (db, report) = recover(&[s]);
        assert_eq!(report.durable_epoch, 4);
        assert_eq!(report.replayed_writes, 5);
        assert!(
            db.epochs().global_epoch() > report.durable_epoch,
            "the epoch must be fast-forwarded past the recovered horizon"
        );
        // Recovered records are installed at the TIDs their transactions
        // committed with, not at fresh ones.
        assert_eq!(
            versions(&db),
            vec![
                (b"alpha".to_vec(), Tid::new(2, 1), b"updated".to_vec()),
                (b"beta".to_vec(), Tid::new(1, 2), b"2".to_vec()),
            ]
        );
        // And new commits sort after everything recovered.
        let mut w = db.register_worker();
        let mut txn = w.begin();
        txn.write(0, b"post", b"recovery").unwrap();
        assert!(txn.commit().unwrap().epoch() > report.durable_epoch);
    }

    #[test]
    fn interleaved_out_of_epoch_order_buffers_recover_in_tid_order() {
        // Loggers append buffers in arrival order, not epoch order: a slow
        // worker's epoch-2 buffer can land *after* a fast worker's epoch-3
        // buffer in the same stream. Replay must still resolve each key to
        // its largest TID, not to stream order.
        let s = [
            round(&[
                txn_block(Tid::new(3, 5), 0, b"a", Some(b"epoch3")), // newest first in stream
                txn_block(Tid::new(2, 9), 0, b"a", Some(b"epoch2")),
                txn_block(Tid::new(2, 1), 0, b"b", Some(b"b-old")),
                marker(2),
            ]),
            round(&[
                txn_block(Tid::new(3, 2), 0, b"b", Some(b"b-new")),
                txn_block(Tid::new(2, 4), 0, b"c", None), // late delete from an earlier epoch
                marker(4),
            ]),
        ]
        .concat();

        let (db, report) = recover(&[s]);
        assert_eq!(report.durable_epoch, 4);
        assert_eq!(report.replayed_txns, 5);
        assert_eq!(
            versions(&db),
            vec![
                (b"a".to_vec(), Tid::new(3, 5), b"epoch3".to_vec()),
                (b"b".to_vec(), Tid::new(3, 2), b"b-new".to_vec()),
            ]
        );
    }

    #[test]
    fn torn_final_round_is_dropped_without_losing_the_prefix() {
        // A crash mid-append tears the last round; everything before it —
        // including buffers that arrived out of epoch order — must survive.
        let mut s = round(&[
            txn_block(Tid::new(3, 1), 0, b"x", Some(b"keep-3")),
            txn_block(Tid::new(2, 8), 0, b"y", Some(b"keep-2")),
            marker(3),
        ]);
        let good_len = s.len();
        s.extend(round(&[
            txn_block(Tid::new(3, 2), 0, b"z", Some(b"torn")),
            marker(4),
        ]));
        s.truncate(good_len + 6); // crash tears the final round mid-header

        let (db, report) = recover(&[s]);
        assert_eq!(report.durable_epoch, 3);
        assert_eq!(report.replayed_txns, 2);
        assert_eq!(report.corrupt_log_tails, 0, "a torn tail is not corruption");
        assert_eq!(report.log_bytes_scanned, good_len as u64);
        assert_eq!(read(&db, b"x"), Some(b"keep-3".to_vec()));
        assert_eq!(read(&db, b"y"), Some(b"keep-2".to_vec()));
        assert_eq!(read(&db, b"z"), None, "the torn round must not be replayed");
    }

    #[test]
    fn apply_fails_without_schema() {
        let s = round(&[txn_block(Tid::new(1, 1), 5, b"k", Some(b"v")), marker(2)]);
        let dir = scratch_dir("no-schema");
        write_segments(&dir, &[s]);
        let db = Database::open(SiloConfig::for_testing());
        assert!(matches!(
            recover_directory(&db, &dir, &RecoveryOptions::default()),
            Err(RecoveryError::Apply(_))
        ));
    }

    #[test]
    fn zero_length_and_truncated_header_files_recover_cleanly() {
        // Regression: a crash can leave zero-length segments (killed right
        // after rotation) and files torn inside the very first envelope
        // header. Both entry points must treat those as empty streams — not
        // panic, not error, not load anything whole-file.
        let dir = scratch_dir("empty-log");
        std::fs::write(dir.join("silo-log-0-seg000000.bin"), b"").unwrap();
        std::fs::write(dir.join("silo-log-1-seg000000.bin"), b"").unwrap();
        let torn = &sealed(&txn_block(Tid::new(3, 1), 0, b"key", Some(b"value")))[..4];
        std::fs::write(dir.join("silo-log-2-seg000000.bin"), torn).unwrap();
        // Files that are not segments are not log streams.
        std::fs::write(dir.join("silo-log-3.bin"), round(&[marker(9)])).unwrap();

        let db = Database::open(SiloConfig::for_testing());
        db.create_table("t").unwrap();
        let report = recover_directory(&db, &dir, &RecoveryOptions::default()).unwrap();
        assert_eq!(report.durable_epoch, 0);
        assert_eq!(report.replayed_txns, 0);
        assert_eq!(report.log_files, 3);

        // So do the same streams written by the test helper, and no streams
        // at all.
        for streams in [vec![Vec::new(), torn.to_vec()], Vec::new()] {
            let (db, report) = recover(&streams);
            assert_eq!(report.durable_epoch, 0);
            assert_eq!(db.table(0).approximate_len(), 0);
        }
    }

    #[test]
    fn mixed_complete_and_truncated_streams_keep_the_good_data() {
        // One healthy stream plus one whose only round tore: the torn stream
        // never durably recorded epoch 3, so the horizon — the min over
        // streams — is 0 and both transactions fall beyond it.
        let dir = scratch_dir("mixed-log");
        let good = round(&[txn_block(Tid::new(2, 1), 0, b"keep", Some(b"v")), marker(3)]);
        std::fs::write(dir.join("silo-log-0-seg000000.bin"), &good).unwrap();
        let torn = round(&[txn_block(Tid::new(2, 2), 0, b"also", Some(b"w")), marker(3)]);
        let tear_at = torn.len() - 4; // tear inside the trailing marker
        std::fs::write(dir.join("silo-log-1-seg000000.bin"), &torn[..tear_at]).unwrap();

        let db = Database::open(SiloConfig::for_testing());
        db.create_table("t").unwrap();
        let report = recover_directory(&db, &dir, &RecoveryOptions::default()).unwrap();
        assert_eq!(report.durable_epoch, 0);
        assert_eq!(report.skipped_txns, 1, "the torn round is never decoded");
        assert_eq!(report.replayed_txns, 0);
    }

    #[test]
    fn corrupt_round_ends_the_stream_instead_of_failing_recovery() {
        // A malformed block mid-stream (an unknown tag, as a flipped bit in
        // a tag byte would produce; a round whose checksum fails) is the
        // corrupt tail of §4.10: everything before it is replayed,
        // everything after it is not, and recovery reports rather than
        // errors.
        let good = round(&[txn_block(Tid::new(2, 1), 0, b"good", Some(b"v")), marker(2)]);
        let lost = round(&[txn_block(Tid::new(2, 2), 0, b"lost", Some(b"w")), marker(2)]);
        let bad_tag = [good.clone(), vec![0x7F], lost.clone()].concat();
        let mut bad_crc = [good.clone(), lost.clone(), lost].concat();
        bad_crc[good.len() + 12] ^= 0x40;

        for stream in [bad_tag, bad_crc] {
            let (db, report) = recover(&[stream]);
            assert_eq!(report.durable_epoch, 2);
            assert_eq!(report.replayed_txns, 1);
            assert_eq!(report.corrupt_log_tails, 1);
            assert_eq!(report.log_bytes_scanned, good.len() as u64);
            assert_eq!(read(&db, b"good"), Some(b"v".to_vec()));
            assert_eq!(
                read(&db, b"lost"),
                None,
                "nothing past the corrupt block may be resurrected"
            );
        }
    }

    #[test]
    fn nothing_of_a_malformed_envelope_is_replayed() {
        // The envelope's CRC is valid over a good TXN block followed by an
        // unknown tag: its good block must not be applied either.
        let good = round(&[txn_block(Tid::new(2, 1), 0, b"good", Some(b"v")), marker(2)]);
        let mut bad = Vec::new();
        let header = begin_sealed(&mut bad);
        bad.extend(txn_block(Tid::new(2, 2), 0, b"inside", Some(b"w")));
        bad.push(0x7F);
        assert!(seal(&mut bad, header));
        let (db, report) = recover(&[[good.clone(), bad].concat()]);
        assert_eq!(report.replayed_txns, 1);
        assert_eq!(report.corrupt_log_tails, 1);
        assert_eq!(report.log_bytes_scanned, good.len() as u64);
        assert_eq!(read(&db, b"good"), Some(b"v".to_vec()));
        assert_eq!(read(&db, b"inside"), None);
    }

    #[test]
    fn recovery_does_not_depend_on_the_thread_count() {
        // Three streams over shared keys, behind a one-slice checkpoint at
        // epoch 3: covered transactions, overwrites, deletes and re-inserts
        // across streams, and transactions beyond the horizon (epoch 8).
        use crate::checkpoint::tests::{slice_bytes, write_checkpoint};
        let dir = scratch_dir("thread-count");
        let keys: Vec<[u8; 2]> = (0..40u16).map(u16::to_be_bytes).collect();
        let ckpt: Vec<(TableId, &[u8], Tid, &[u8])> = keys[..30]
            .iter()
            .enumerate()
            .map(|(i, key)| (0, key.as_slice(), Tid::new(3, i as u64), b"ckpt".as_slice()))
            .collect();
        write_checkpoint(&dir, 3, &[(&slice_bytes(&ckpt), ckpt.len() as u64)]);
        let streams: Vec<Vec<u8>> = (0..3u64)
            .map(|stream| {
                let mut blocks = Vec::new();
                for (i, key) in keys.iter().enumerate() {
                    let i = i as u64;
                    let value = format!("s{stream}-{i}");
                    for epoch in 2..=8 {
                        // Which stream holds a key's newest write varies by key.
                        let seq = 100 * i + 10 * ((stream + i) % 3) + epoch;
                        let value = match (i + stream + epoch) % 4 {
                            0 => None,
                            _ => Some(value.as_bytes()),
                        };
                        blocks.push(txn_block(Tid::new(epoch, seq), 0, key, value));
                    }
                }
                blocks.push(marker(7));
                round(&blocks)
            })
            .collect();
        write_segments(&dir, &streams);

        let recover_with = |replay_threads: usize| {
            let db = Database::open(SiloConfig::for_testing());
            db.create_table("t").unwrap();
            let r = recover_directory(&db, &dir, &RecoveryOptions { replay_threads }).unwrap();
            assert_no_absent_record(&db);
            let counts = [
                r.durable_epoch,
                r.replayed_txns,
                r.replayed_writes,
                r.skipped_txns,
                r.covered_txns,
            ];
            (versions(&db), counts)
        };
        let one = recover_with(1);
        assert_eq!(one.1, [7, 3 * 40 * 4, 3 * 40 * 4, 3 * 40, 3 * 40 * 2]);
        assert!(one.0.len() < keys.len(), "some key ends deleted");
        assert!(!one.0.is_empty());
        for threads in [2, 3, 4, 7] {
            assert_eq!(recover_with(threads), one, "{threads} replay threads");
        }
    }

    #[test]
    fn bare_block_outside_an_envelope_is_a_corrupt_tail() {
        // Only the logger's sealed rounds are replayed. A well-formed TXN
        // block sitting bare at the top level carries no checksum, so it is
        // treated like any other damage: the stream ends there.
        let good = round(&[txn_block(Tid::new(2, 1), 0, b"good", Some(b"v")), marker(2)]);
        let bare = [
            good,
            txn_block(Tid::new(2, 2), 0, b"bare", Some(b"w")),
            marker(2),
        ]
        .concat();
        let (db, report) = recover(&[bare]);
        assert_eq!(report.corrupt_log_tails, 1);
        assert_eq!(report.replayed_txns, 1);
        assert_eq!(read(&db, b"good"), Some(b"v".to_vec()));
        assert_eq!(read(&db, b"bare"), None);
    }

    /// The records of the newer checkpoint below.
    fn evil() -> [(TableId, &'static [u8], Tid, &'static [u8]); 2] {
        [
            (0, b"k", Tid::new(5, 1), b"evil"),
            (0, b"x", Tid::new(5, 2), b"evil"),
        ]
    }

    /// A durability root holding a good checkpoint at epoch 3 (`k = good`)
    /// and a newer one at epoch 5 ([`evil`]) whose slice `damage` mangled.
    /// Its manifest claims the mangled slice's length and both records, so
    /// only the slice's contents can give the damage away.
    fn damaged_newer_checkpoint(name: &str, damage: impl Fn(&mut Vec<u8>)) -> ScratchDir {
        use crate::checkpoint::tests::{slice_bytes, write_checkpoint};
        let dir = scratch_dir(name);
        let good = slice_bytes(&[(0, b"k", Tid::new(3, 1), b"good")]);
        write_checkpoint(&dir, 3, &[(&good, 1)]);
        let mut newer = slice_bytes(&evil());
        damage(&mut newer);
        write_checkpoint(&dir, 5, &[(&newer, evil().len() as u64)]);
        dir
    }

    /// The newer checkpoint of [`damaged_newer_checkpoint`] is complete by
    /// its manifest and fails its slice's checks as `InvalidData`, so
    /// recovery refuses it.
    fn assert_recovery_refuses(name: &str, damage: impl Fn(&mut Vec<u8>)) {
        let dir = damaged_newer_checkpoint(name, damage);
        let err = assert_refused(&dir);
        assert!(err.to_string().starts_with("checkpoint slice "), "{err}");
    }

    /// Recovery from `dir` fails on the checkpoint at epoch 5 as
    /// `InvalidData` and loads nothing — not even the intact one at epoch 3,
    /// which the log behind the newer one no longer extends. Returns the
    /// error inside the `RecoveryError::Checkpoint`.
    fn assert_refused(dir: &Path) -> std::io::Error {
        let db = Database::open(SiloConfig::for_testing());
        db.create_table("t").unwrap();
        let error = match recover_directory(&db, dir, &RecoveryOptions::default()) {
            Err(RecoveryError::Checkpoint { epoch: 5, error }) => error,
            other => panic!("recovery from a damaged checkpoint returned {other:?}"),
        };
        assert_eq!(error.kind(), std::io::ErrorKind::InvalidData, "{error}");
        assert_eq!(db.table(0).approximate_len(), 0, "nothing is loaded");
        error
    }

    #[test]
    fn a_damaged_manifest_fails_recovery_instead_of_hiding_its_checkpoint() {
        // Each edit leaves a manifest that no longer describes its slices, so
        // reading the checkpoint at epoch 5 fails on its manifest.
        for (name, from, to) in [
            ("ckpt-manifest-epoch", "epoch 5", "epoch 7"),
            ("ckpt-manifest-length", "slice 0 ", "slice 0 1"),
            ("ckpt-manifest-end", "end", "enD"),
        ] {
            let dir = damaged_newer_checkpoint(name, |_| {});
            let manifest = dir.join("checkpoints/ckpt-0000000000000005/MANIFEST");
            let text = std::fs::read_to_string(&manifest).unwrap();
            std::fs::write(&manifest, text.replace(from, to)).unwrap();
            let (epoch, newest) = crate::checkpoint::newest_checkpoint(&dir).unwrap();
            let err = newest.unwrap_err();
            assert_eq!(epoch, 5);
            assert!(err.to_string().contains("manifest is damaged"), "{err}");
            assert_refused(&dir);
        }
    }

    // Each damage case below names the fallback recovery must not take: it
    // refuses instead (see `assert_recovery_refuses`).
    #[test]
    fn recovery_falls_back_past_a_corrupt_checkpoint() {
        assert_recovery_refuses("ckpt-fallback", |slice| {
            let last = slice.len() - 1;
            slice[last] ^= 0x01;
        });
    }

    #[test]
    fn slice_with_a_damaged_first_tag_is_rejected_and_recovery_falls_back() {
        assert_recovery_refuses("ckpt-tag", |slice| slice[0] ^= 0x20);
    }

    #[test]
    fn slice_with_an_inflated_envelope_length_is_rejected_and_recovery_falls_back() {
        // The decoder reads the now-short envelope as a torn tail — a clean
        // end for a log, never for a slice.
        assert_recovery_refuses("ckpt-length", |slice| slice[4] ^= 0x01);
    }

    #[test]
    fn slice_missing_a_record_is_rejected_and_recovery_falls_back() {
        assert_recovery_refuses("ckpt-short", |slice| {
            *slice = crate::checkpoint::tests::slice_bytes(&evil()[..1]);
        });
    }

    #[test]
    fn slice_holding_an_epoch_marker_is_rejected_and_recovery_falls_back() {
        assert_recovery_refuses("ckpt-marker", |slice| {
            let [(_, k, k_tid, k_value), (_, x, x_tid, x_value)] = evil();
            *slice = round(&[
                txn_block(k_tid, 0, k, Some(k_value)),
                marker(5),
                txn_block(x_tid, 0, x, Some(x_value)),
            ]);
        });
    }

    /// A checkpoint of three slices, one table each, whose middle slice is
    /// damaged: the other two read cleanly, but recovery publishes neither,
    /// whichever loader reads which slice and in what order.
    #[test]
    fn a_failed_slice_publishes_nothing() {
        use crate::checkpoint::tests::{slice_bytes, write_checkpoint};
        let dir = scratch_dir("ckpt-all-or-nothing");
        // Several envelopes per slice, so the damaged one loads a prefix.
        let value = [7u8; 100];
        let keys: Vec<[u8; 4]> = (0..2_000u32).map(u32::to_be_bytes).collect();
        let mut slices: Vec<Vec<u8>> = (0..3)
            .map(|table| {
                let records: Vec<(TableId, &[u8], Tid, &[u8])> = keys
                    .iter()
                    .map(|key| (table, key.as_slice(), Tid::new(3, 1), value.as_slice()))
                    .collect();
                slice_bytes(&records)
            })
            .collect();
        let middle = slices[1].len() / 2;
        slices[1][middle] ^= 0x01;
        let manifest: Vec<(&[u8], u64)> = slices
            .iter()
            .map(|slice| (slice.as_slice(), keys.len() as u64))
            .collect();
        write_checkpoint(&dir, 3, &manifest);

        for replay_threads in [1, 3] {
            let db = Database::open(SiloConfig::for_testing());
            let tables: Vec<TableId> = ["a", "b", "c"]
                .iter()
                .map(|name| db.create_table(name).unwrap())
                .collect();
            match recover_directory(&db, &dir, &RecoveryOptions { replay_threads }) {
                Err(RecoveryError::Checkpoint { epoch: 3, error }) => {
                    assert_eq!(error.kind(), std::io::ErrorKind::InvalidData, "{error}")
                }
                other => panic!("{replay_threads} loaders: a damaged slice returned {other:?}"),
            }
            let mut w = db.register_worker();
            for t in tables {
                assert_eq!(db.table(t).approximate_len(), 0, "{replay_threads} loaders");
                let mut txn = w.begin();
                assert_eq!(txn.scan(t, b"", None, None).unwrap(), Vec::new());
                txn.commit().unwrap();
            }
        }
    }

    /// A tail delete of a key nothing else holds builds nothing, and a
    /// larger-TID insert of the same key revives it: the key stays.
    #[test]
    fn a_revived_tombstone_is_not_reclaimed() {
        let s = round(&[
            txn_block(Tid::new(2, 5), 0, b"r", None),
            txn_block(Tid::new(3, 1), 0, b"r", Some(b"back")),
            txn_block(Tid::new(2, 6), 0, b"d", None),
            marker(3),
        ]);
        let (db, _) = recover(&[s]);
        assert_eq!(read(&db, b"r"), Some(b"back".to_vec()));
        assert_eq!(db.table(0).approximate_len(), 1, "only `r` is built");
        assert_no_absent_record(&db);
    }

    /// A durability root holding a checkpoint at epoch 3 of `rows` in table
    /// 0 and one log stream of `blocks`, recovered into a fresh database.
    fn recover_checkpoint_and_tail(
        rows: &[(&[u8], &[u8])],
        blocks: &[Vec<u8>],
    ) -> (Arc<Database>, RecoveryReport) {
        use crate::checkpoint::tests::{slice_bytes, write_checkpoint};
        let dir = scratch_dir("ckpt-and-tail");
        let records: Vec<(TableId, &[u8], Tid, &[u8])> = rows
            .iter()
            .map(|&(key, value)| (0, key, Tid::new(3, 1), value))
            .collect();
        write_checkpoint(&dir, 3, &[(&slice_bytes(&records), records.len() as u64)]);
        write_segments(&dir, &[round(blocks)]);
        crate::tests::recovered("t", &dir)
    }

    #[test]
    fn a_tail_only_key_whose_last_write_is_a_delete_is_never_built() {
        let (db, report) = recover_checkpoint_and_tail(
            &[(b"m", b"ckpt")],
            &[
                txn_block(Tid::new(4, 1), 0, b"a", Some(b"short-lived")),
                txn_block(Tid::new(4, 2), 0, b"a", None),
                txn_block(Tid::new(4, 3), 0, b"z", None),
                txn_block(Tid::new(5, 1), 0, b"b", Some(b"v")),
                txn_block(Tid::new(5, 2), 0, b"b", None),
                marker(5),
            ],
        );
        assert_eq!(report.replayed_writes, 5);
        let table = db.table(0);
        for key in [&b"a"[..], b"b", b"z"] {
            assert!(table.tree().get(key).is_none(), "{key:?} was built");
        }
        assert_eq!(
            versions(&db),
            [(b"m".to_vec(), Tid::new(3, 1), b"ckpt".to_vec())]
        );
    }

    #[test]
    fn a_checkpoint_row_deleted_in_the_tail_is_gone() {
        let (db, _) = recover_checkpoint_and_tail(
            &[(b"a", b"1"), (b"b", b"2"), (b"c", b"3")],
            &[
                txn_block(Tid::new(4, 1), 0, b"b", None),
                txn_block(Tid::new(4, 2), 0, b"c", Some(b"tail")),
                marker(4),
            ],
        );
        assert!(db.table(0).tree().get(b"b").is_none());
        assert_eq!(
            versions(&db),
            [
                (b"a".to_vec(), Tid::new(3, 1), b"1".to_vec()),
                (b"c".to_vec(), Tid::new(4, 2), b"tail".to_vec()),
            ]
        );
        assert_no_absent_record(&db);
    }

    #[test]
    fn the_larger_tid_wins_a_key_in_two_streams_in_either_order() {
        let newer = round(&[
            txn_block(Tid::new(3, 5), 0, b"k", Some(b"newer")),
            txn_block(Tid::new(3, 6), 0, b"gone", None),
            marker(4),
        ]);
        let older = round(&[
            txn_block(Tid::new(3, 2), 0, b"k", Some(b"older")),
            txn_block(Tid::new(3, 1), 0, b"gone", Some(b"older")),
            marker(4),
        ]);
        for streams in [[newer.clone(), older.clone()], [older, newer]] {
            let (db, _) = recover(&streams);
            assert_eq!(
                versions(&db),
                [(b"k".to_vec(), Tid::new(3, 5), b"newer".to_vec())]
            );
            assert_no_absent_record(&db);
        }
    }

    /// Keys that share their first 16 bytes, the part the sort compares
    /// inline, or differ only by trailing zero bytes, still sort and merge
    /// by all of their bytes.
    #[test]
    fn keys_alike_in_their_first_bytes_sort_by_all_of_them() {
        let keys: [&[u8]; 5] = [
            b"0123456789abcde",
            b"0123456789abcde\0",
            b"0123456789abcdef",
            b"0123456789abcdef\0",
            b"0123456789abcdefa",
        ];
        // Each key twice in each stream, in reverse key order; the newest
        // write of even keys is in the second stream.
        let stream = |s: u64| {
            let mut blocks = Vec::new();
            for (i, key) in keys.iter().enumerate().rev() {
                for seq in [1, 2] {
                    let newest = (i as u64 + s) % 2 * 10;
                    let tid = Tid::new(3, 100 * i as u64 + newest + seq);
                    blocks.push(txn_block(tid, 0, key, Some(format!("{tid:?}").as_bytes())));
                }
            }
            blocks.push(marker(3));
            round(&blocks)
        };
        let (db, _) = recover(&[stream(0), stream(1)]);
        let expected: Vec<(Vec<u8>, Tid, Vec<u8>)> = keys
            .iter()
            .enumerate()
            .map(|(i, key)| {
                let tid = Tid::new(3, 100 * i as u64 + 12);
                (key.to_vec(), tid, format!("{tid:?}").into_bytes())
            })
            .collect();
        assert_eq!(versions(&db), expected);
    }

    /// Records of every size class are carved from the record slab, whether
    /// from the checkpoint or the tail; a build that is dropped because a
    /// slice failed hands each to the next worker's pool.
    #[test]
    fn recovered_records_of_every_class_come_from_the_slab_and_return_to_a_pool() {
        use crate::checkpoint::tests::{slice_bytes, write_checkpoint};
        const CLASSES: [usize; 7] = [16, 32, 64, 128, 256, 512, 1024];
        let values: Vec<Vec<u8>> = CLASSES.iter().map(|&cap| vec![1; cap]).collect();
        let keys: Vec<[u8; 1]> = (0..=CLASSES.len() as u8).map(|i| [i]).collect();
        // Even classes come from the checkpoint, odd ones from the tail. The
        // last key's checkpoint row is replaced by a tail value of the
        // largest class.
        let last = CLASSES.len();
        let records = |table: TableId| -> Vec<(TableId, &[u8], Tid, &[u8])> {
            (0..CLASSES.len())
                .step_by(2)
                .map(|i| (table, keys[i].as_slice(), Tid::new(3, 1), &values[i][..]))
                .chain([(table, &keys[last][..], Tid::new(3, 1), &values[0][..])])
                .collect()
        };
        let mut tail: Vec<Vec<u8>> = (1..CLASSES.len())
            .step_by(2)
            .map(|i| txn_block(Tid::new(4, i as u64), 0, &keys[i], Some(&values[i])))
            .collect();
        tail.push(txn_block(
            Tid::new(4, 9),
            0,
            &keys[last],
            Some(&values[last - 1]),
        ));
        tail.push(marker(4));
        let recover_into = |slices: &[(&[u8], u64)]| {
            let dir = scratch_dir("slab-classes");
            write_checkpoint(&dir, 3, slices);
            write_segments(&dir, &[round(&tail)]);
            let db = Database::open(SiloConfig::for_testing());
            db.create_table("t").unwrap();
            db.create_table("u").unwrap();
            let result = recover_directory(&db, &dir, &RecoveryOptions::default());
            (db, result)
        };

        let good = slice_bytes(&records(0));
        let (db, result) = recover_into(&[(&good, 5)]);
        result.unwrap();
        let table = db.table(0);
        for (i, key) in keys.iter().enumerate() {
            let cap = CLASSES[i.min(last - 1)];
            let rec = table.tree().get(key).unwrap() as *const silo_core::record::Record;
            // SAFETY: the key's live record; no transaction runs.
            let (from_slab, capacity) = unsafe { ((*rec).from_slab(), (*rec).capacity()) };
            assert!(from_slab, "class {cap}");
            assert_eq!(capacity, cap);
        }

        // The same build, dropped because table `u`'s slice is damaged.
        let mut rotted = slice_bytes(&records(1));
        let middle = rotted.len() / 2;
        rotted[middle] ^= 0x01;
        let (db, result) = recover_into(&[(&good, 5), (&rotted, 5)]);
        assert!(matches!(result, Err(RecoveryError::Checkpoint { .. })));
        let mut w = db.register_worker();
        let mut txn = w.begin();
        for (key, value) in keys.iter().zip(&values) {
            txn.insert(0, key, value).unwrap();
        }
        txn.commit().unwrap();
        assert_eq!(w.stats().pool_misses, 0, "every class came from the pool");
        assert_eq!(w.stats().pool_hits, CLASSES.len() as u64);
    }
}
