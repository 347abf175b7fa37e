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

use crate::fs::{Fs, RealFs};
use crate::record::{BlockRef, DecodeError, StreamDecoder};
use crate::sink::segments;

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
    let mut by_logger: BTreeMap<usize, Vec<PathBuf>> = BTreeMap::new();
    for (logger, _, path) in segments(&RealFs, dir)? {
        by_logger.entry(logger).or_default().push(path);
    }
    Ok(by_logger.into_values().collect())
}

/// A reader chaining a logger's segment files into one logical stream.
struct ChainedFiles<'a> {
    paths: std::slice::Iter<'a, PathBuf>,
    current: Option<BufReader<Box<dyn std::io::Read>>>,
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
                    self.current = Some(BufReader::new(RealFs.read(path)?));
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
mod tests;
