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
//! The checkpoint holds each table as one run in key order, so its slices
//! load in parallel and each run builds its empty table's index bottom-up
//! ([`silo_core::bulk_load`]). Each slice is read once: the strict checks run
//! as it loads, and no table is published until every slice has passed.
//! Replay runs `replay_threads` appliers that each read every log stream
//! themselves and apply only the writes of their own key shard, straight
//! from the decoder's buffer. No two appliers touch one key, and
//! [`silo_core::bulk_apply`] resolves each key by TID, so records of the same
//! key end at the largest TID no matter which stream they came from or in
//! which order. Each applier notes the keys it leaves absent, and only those
//! are visited to reclaim the absent records replay leaves behind
//! ([`silo_core::reclaim_absent`]). Nothing is ever loaded whole-file into
//! memory.
//!
//! There is one entry point: [`recover_directory`] runs this over the
//! segment files of a durability root, after restoring the checkpoint there.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use silo_core::{BulkOutcome, Database, TableId};

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
    /// Worker threads used both to load checkpoint slices and to replay the
    /// log: each replay thread reads every log stream and applies one key
    /// shard of it.
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
    /// Wall-clock microseconds loading the checkpoint.
    pub checkpoint_micros: u64,
    /// The recovered durable horizon `D`: every transaction with
    /// `epoch ≤ D` is restored; nothing newer is.
    pub durable_epoch: u64,
    /// Log-tail transactions replayed (`checkpoint_epoch < epoch ≤ D`).
    pub replayed_txns: u64,
    /// Individual writes applied during replay.
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
    /// Wall-clock microseconds replaying the log tail (includes the horizon
    /// pre-scan).
    pub replay_micros: u64,
    /// Absent records (delete tombstones, superseded deleted keys) unhooked
    /// and freed by the post-replay sweep.
    pub tombstones_reclaimed: u64,
    /// Wall-clock microseconds of the post-replay sweep, which visits only
    /// the keys replay left absent.
    pub sweep_micros: u64,
    /// Log streams whose tail was malformed (failed checksum, bad tag) and
    /// treated as the torn tail of §4.10 — ignored past the last good block.
    pub corrupt_log_tails: u64,
}

/// The table a recovered write applies to.
pub(crate) fn recovery_table(
    db: &Database,
    id: TableId,
) -> Result<Arc<silo_core::Table>, RecoveryError> {
    db.try_table(id).ok_or_else(|| unknown_table(id))
}

/// The error for a recovered write to a table the schema does not have.
pub(crate) fn unknown_table(id: TableId) -> RecoveryError {
    RecoveryError::Apply(format!(
        "table id {id} does not exist; recreate the schema before recovery"
    ))
}

fn shard_of(table: TableId, key: &[u8], shards: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    table.hash(&mut hasher);
    key.hash(&mut hasher);
    (hasher.finish() % shards as u64) as usize
}

/// Full crash recovery from a durability root directory: restores the latest
/// complete checkpoint (slices loaded concurrently), then replays the log
/// tail — `replay_threads` appliers, each reading every logger stream and
/// applying the writes of its own key shard, with TID-based conflict
/// resolution — and finally fast-forwards the epoch manager past the
/// recovered horizon so post-recovery commits (and their log records) sort
/// after everything recovered.
///
/// The database must be freshly opened with its tables recreated (same
/// [`TableId`]s as before the crash) and no concurrent transactional access.
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
    let threads = options.replay_threads.max(1);
    let mut report = RecoveryReport::default();

    // The newest checkpoint, read once: nothing of it is published unless
    // every slice passes. An older one is no fallback: the log before the
    // newest is truncated.
    let ckpt_start = Instant::now();
    if let Some((epoch, info)) = crate::checkpoint::newest_checkpoint(dir) {
        let info = info.map_err(|error| RecoveryError::Checkpoint { epoch, error })?;
        crate::checkpoint::load_checkpoint(db, &info, threads)?;
        report.checkpoint_epoch = info.epoch;
        report.checkpoint_records = info.slices.iter().map(|(_, _, records)| records).sum();
        report.checkpoint_bytes = info.slices.iter().map(|(_, bytes, _)| bytes).sum();
        report.checkpoint_micros = ckpt_start.elapsed().as_micros() as u64;
    }
    let ce = report.checkpoint_epoch;

    // The log tail: each stream is read twice, by the horizon pre-scan (one
    // thread per stream), then by every replay thread.
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

    let shards = in_parallel(threads, |shard| {
        replay_shard(db, &streams, shard, threads, ce, durable_epoch)
    })?;
    let (shards, absent): (Vec<RecoveryReport>, Vec<_>) = shards.into_iter().unzip();
    // Every shard reads every transaction and byte; each applies its own writes.
    report.replayed_writes = shards.iter().map(|shard| shard.replayed_writes).sum();
    report.replayed_txns = shards[0].replayed_txns;
    report.skipped_txns = shards[0].skipped_txns;
    report.covered_txns = shards[0].covered_txns;
    report.log_bytes_scanned = shards[0].log_bytes_scanned;
    report.replay_micros = replay_start.elapsed().as_micros() as u64;

    // Reclaim tombstones. Replay installs absent records (delete tombstones
    // for unseen keys; final deletes of checkpointed keys) that would
    // otherwise stay hooked in the index until a future write happens to
    // touch them. Replay noted every key it left absent; recovery still holds
    // exclusive access, so those still absent are unhooked and freed
    // directly, one table per thread.
    let sweep_start = Instant::now();
    let table_ids = db.table_ids();
    let next = AtomicUsize::new(0);
    let swept = in_parallel(threads.min(table_ids.len().max(1)), |_| {
        let mut reclaimed = 0;
        while let Some(&table) = table_ids.get(next.fetch_add(1, Ordering::Relaxed)) {
            let keys = absent.iter().flatten();
            let keys = keys.filter_map(|(id, key)| (*id == table).then_some(key));
            // SAFETY: recovery-mode exclusivity — replay finished and no
            // transactional workers run yet; each table is swept by exactly
            // one thread.
            reclaimed += unsafe { silo_core::reclaim_absent(&db.table(table), keys) };
        }
        Ok::<u64, RecoveryError>(reclaimed)
    })?;
    report.tombstones_reclaimed = swept.iter().sum();
    report.sweep_micros = sweep_start.elapsed().as_micros() as u64;

    // Fast-forward the epochs past everything recovered, far enough that the
    // next snapshot epoch covers the whole recovered state (§4.9:
    // `SE = snap(E − k)`); post-recovery commits, markers and snapshots all
    // sort after the recovered horizon.
    let k = db.epochs().config().snapshot_interval_epochs;
    db.epochs().advance_to(durable_epoch + 2 * k);

    Ok(report)
}

/// Replay thread `shard` of `shards`: reads every stream and applies the
/// writes of tail transactions (`ce < epoch ≤ durable_epoch`) whose key
/// falls in its shard, straight from the decoder's buffer. Its report counts
/// the writes it applied, and every transaction and byte it read; beside it
/// come the keys a write left absent.
fn replay_shard(
    db: &Arc<Database>,
    streams: &[Vec<PathBuf>],
    shard: usize,
    shards: usize,
    ce: u64,
    durable_epoch: u64,
) -> Result<(RecoveryReport, Vec<(TableId, Vec<u8>)>), RecoveryError> {
    let mut tally = RecoveryReport::default();
    let mut absent = Vec::new();
    let mut failed = None;
    for paths in streams {
        // The pre-scan counted corruption; replay stops where it stopped.
        let (bytes, _) = walk_stream(paths, |block| {
            let BlockRef::Txn(tid, writes) = block else {
                return;
            };
            let epoch = tid.epoch();
            if epoch <= ce {
                tally.covered_txns += 1;
                return;
            }
            if epoch > durable_epoch {
                tally.skipped_txns += 1;
                return;
            }
            tally.replayed_txns += 1;
            for (id, key, value) in writes {
                if failed.is_some() || shard_of(id, key, shards) != shard {
                    continue;
                }
                let table = match recovery_table(db, id) {
                    Ok(table) => table,
                    Err(e) => {
                        failed = Some(e);
                        continue;
                    }
                };
                // SAFETY: recovery-mode exclusivity — no transactions run
                // during recovery, and sharding by key hash means no other
                // replay thread ever touches this key.
                let outcome = unsafe { silo_core::bulk_apply(&table, key, tid, value) };
                if matches!(outcome, BulkOutcome::Tombstoned | BulkOutcome::Deleted) {
                    absent.push((id, key.to_vec()));
                }
                tally.replayed_writes += 1;
            }
        })?;
        tally.log_bytes_scanned += bytes;
    }
    match failed {
        Some(e) => Err(e),
        None => Ok((tally, absent)),
    }
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
        assert_eq!(report.tombstones_reclaimed, 1);
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
                r.tombstones_reclaimed,
            ];
            (versions(&db), counts)
        };
        let one = recover_with(1);
        assert_eq!(
            one.1,
            [7, 3 * 40 * 4, 3 * 40 * 4, 3 * 40, 3 * 40 * 2, one.1[5]]
        );
        assert!(one.1[5] > 0, "some key ends deleted");
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

    /// A tail delete of an unseen key leaves a tombstone on its shard, and a
    /// larger-TID insert of the same key revives it: the key stays and is not
    /// counted as reclaimed.
    #[test]
    fn a_revived_tombstone_is_not_reclaimed() {
        let s = round(&[
            txn_block(Tid::new(2, 5), 0, b"r", None),
            txn_block(Tid::new(3, 1), 0, b"r", Some(b"back")),
            txn_block(Tid::new(2, 6), 0, b"d", None),
            marker(3),
        ]);
        let (db, report) = recover(&[s]);
        assert_eq!(read(&db, b"r"), Some(b"back".to_vec()));
        assert_eq!(report.tombstones_reclaimed, 1, "only `d` is reclaimed");
        assert_eq!(db.table(0).approximate_len(), 1);
        assert_no_absent_record(&db);
    }
}
