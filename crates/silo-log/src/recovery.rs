//! Crash recovery: reconstruct a database state from a checkpoint plus the
//! redo-log tail (paper §4.10 "To recover, Silo would read the most recent
//! `d_l` for each logger, compute `D = min d_l`, and then replay the logs,
//! ignoring entries for transactions whose TIDs are from epochs after `D`.").
//!
//! With checkpoints the horizon story becomes: load the latest *complete*
//! checkpoint (epoch `ce`; every transaction with epoch `≤ ce` is reflected
//! in it), compute the durable epoch `D = max(ce, min_l max-marker)` from the
//! surviving log segments, and replay exactly the transactions with
//! `ce < epoch(tid) ≤ D` — the log *tail*. Replay fans out across worker
//! threads: one streaming decoder per logger feeds writes, sharded by key
//! hash, to appliers that resolve conflicts by TID ([`silo_core::bulk_apply`]),
//! so records of the same key are always applied in TID order no matter which
//! stream they came from. Nothing is ever loaded whole-file into memory.
//!
//! There is one pipeline. [`recover_directory`] runs it over the segment
//! files of a durability root (after restoring the checkpoint there);
//! [`recover_into`] runs it over in-memory streams (`ce = 0`).

use std::collections::BTreeMap;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use silo_core::{Database, TableId, Tid};

use crate::record::{Block, DecodeError, LoggedWrite, StreamDecoder};
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
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Decode(e) => write!(f, "log decode error: {e}"),
            RecoveryError::Io(e) => write!(f, "log read error: {e}"),
            RecoveryError::Apply(e) => write!(f, "recovery apply error: {e}"),
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

/// Decodes the next block leniently: a malformed block (failed checksum, bad
/// length, unknown tag) ends the stream — it is the corrupt tail of §4.10,
/// everything durably acknowledged precedes it — instead of failing recovery.
/// Real I/O errors still propagate; corruption is recorded in `corrupt`.
fn next_block_lenient<R: std::io::Read>(
    decoder: &mut StreamDecoder<R>,
    corrupt: &mut bool,
) -> Result<Option<Block>, RecoveryError> {
    match decoder.next_block() {
        Ok(block) => Ok(block),
        Err(e @ DecodeError::Io(_)) => Err(e.into()),
        Err(_) => {
            *corrupt = true;
            Ok(None)
        }
    }
}

/// The largest durable-epoch marker a stream of blocks contains, plus whether
/// the stream ended at a corrupt block. Transaction payloads are parsed but
/// not materialized.
fn stream_durable(
    mut decoder: StreamDecoder<impl std::io::Read>,
) -> Result<(u64, bool), RecoveryError> {
    let mut durable = 0u64;
    let mut corrupt = false;
    while let Some(block) = next_block_lenient(&mut decoder, &mut corrupt)? {
        if let Block::EpochMarker(e) = block {
            durable = durable.max(e);
        }
    }
    Ok((durable, corrupt))
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
struct ChainedFiles {
    paths: std::vec::IntoIter<PathBuf>,
    current: Option<BufReader<std::fs::File>>,
}

impl ChainedFiles {
    fn new(paths: Vec<PathBuf>) -> Self {
        ChainedFiles {
            paths: paths.into_iter(),
            current: None,
        }
    }
}

impl std::io::Read for ChainedFiles {
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
    /// Worker threads used both to load checkpoint slices and to apply
    /// replayed log writes (one streaming decoder additionally runs per log
    /// stream).
    pub replay_threads: usize,
    /// Sweep absent records (delete tombstones and recovered final deletes)
    /// out of the indexes once replay completes, instead of leaving them
    /// hooked until some future write touches their keys.
    pub sweep_tombstones: bool,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            replay_threads: 4,
            sweep_tombstones: true,
        }
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
    /// Number of surviving log files scanned (0 for in-memory streams).
    pub log_files: u64,
    /// Wall-clock microseconds replaying the log tail (includes the horizon
    /// pre-scan).
    pub replay_micros: u64,
    /// Absent records (delete tombstones, superseded deleted keys) unhooked
    /// and freed by the post-replay sweep.
    pub tombstones_reclaimed: u64,
    /// Log streams whose tail was malformed (failed checksum, bad tag) and
    /// treated as the torn tail of §4.10 — ignored past the last good block.
    pub corrupt_log_tails: u64,
    /// Complete-looking checkpoints that failed slice verification and were
    /// skipped in favor of an older one.
    pub checkpoints_skipped: u64,
}

/// The table a recovered write applies to.
pub(crate) fn recovery_table(
    db: &Database,
    id: TableId,
) -> Result<Arc<silo_core::Table>, RecoveryError> {
    db.try_table(id).ok_or_else(|| {
        RecoveryError::Apply(format!(
            "table id {id} does not exist; recreate the schema before recovery"
        ))
    })
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
/// tail — streaming decoders, one per logger stream, fan writes out to
/// `replay_threads` appliers sharded by key hash, with TID-based conflict
/// resolution — and finally fast-forwards the epoch manager past the
/// recovered horizon so post-recovery commits (and their log records) sort
/// after everything recovered.
///
/// The database must be freshly opened with its tables recreated (same
/// [`TableId`]s as before the crash) and no concurrent transactional access.
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

    // The checkpoint. Checkpoints are tried newest first; one whose slices
    // fail checksum verification is skipped in favor of the next complete one
    // (the checkpointer keeps the previous complete checkpoint around as
    // exactly this fallback) rather than loaded as garbage.
    let ckpt_start = Instant::now();
    for info in crate::checkpoint::complete_checkpoints(dir) {
        if let Err(e) = crate::checkpoint::verify_checkpoint(&info) {
            eprintln!(
                "silo-log: checkpoint at epoch {} failed verification ({e}); \
                 falling back to an older checkpoint",
                info.epoch
            );
            report.checkpoints_skipped += 1;
            continue;
        }
        let (records, bytes) = crate::checkpoint::load_checkpoint(db, &info, threads)?;
        report.checkpoint_epoch = info.epoch;
        report.checkpoint_records = records;
        report.checkpoint_bytes = bytes;
        report.checkpoint_micros = ckpt_start.elapsed().as_micros() as u64;
        break;
    }

    let streams = log_streams(dir)?;
    report.log_files = streams.iter().map(|paths| paths.len() as u64).sum();
    replay_tail(db, options, report, streams.len(), |i| {
        ChainedFiles::new(streams[i].clone())
    })
}

/// Recovery from in-memory log streams (one per logger, as returned by
/// [`crate::SiloLogger::memory_logs`] — the `Silo+tmpfs` configuration):
/// the same replay as [`recover_directory`] with no checkpoint and the
/// default [`RecoveryOptions`]. Recovered records keep their original TIDs
/// and the epochs are fast-forwarded past the recovered horizon.
pub fn recover_into(
    db: &Arc<Database>,
    streams: &[Vec<u8>],
) -> Result<RecoveryReport, RecoveryError> {
    replay_tail(
        db,
        &RecoveryOptions::default(),
        RecoveryReport::default(),
        streams.len(),
        |i| streams[i].as_slice(),
    )
}

/// The one replay pipeline, over `streams` logger streams that `open`
/// (re)opens from the start — each is read twice: the horizon pre-scan, then
/// the replay proper. `report` carries the checkpoint phase's results;
/// transactions with epochs `≤ report.checkpoint_epoch` are already covered.
///
/// Horizon scan → sharded [`silo_core::bulk_apply`] replay → tombstone sweep
/// → epoch fast-forward.
fn replay_tail<R: std::io::Read>(
    db: &Arc<Database>,
    options: &RecoveryOptions,
    mut report: RecoveryReport,
    streams: usize,
    open: impl Fn(usize) -> R + Sync,
) -> Result<RecoveryReport, RecoveryError> {
    let threads = options.replay_threads.max(1);
    let ce = report.checkpoint_epoch;
    let replay_start = Instant::now();
    let open = &open;

    // Horizon pre-scan (parallel, skipping payloads): per-stream max marker.
    let per_stream: Vec<Result<(u64, bool), RecoveryError>> = std::thread::scope(|scope| {
        (0..streams)
            .map(|i| scope.spawn(move || stream_durable(StreamDecoder::new_skipping(open(i)))))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("horizon scanner panicked"))
            .collect()
    });
    let mut min_marker: Option<u64> = None;
    for result in per_stream {
        let (durable, corrupt) = result?;
        report.corrupt_log_tails += corrupt as u64;
        min_marker = Some(min_marker.map_or(durable, |m: u64| m.min(durable)));
    }
    let durable_epoch = min_marker.unwrap_or(0).max(ce);
    report.durable_epoch = durable_epoch;

    // Replay fan-out: one decoder per stream, `threads` shard appliers.
    const BATCH: usize = 128;
    let replayed = AtomicU64::new(0);
    let skipped = AtomicU64::new(0);
    let covered = AtomicU64::new(0);
    let bytes_scanned = AtomicU64::new(0);
    let (decoder_results, applier_results) = std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(threads);
        let mut applier_handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (tx, rx) = std::sync::mpsc::channel::<Vec<(Tid, LoggedWrite)>>();
            senders.push(tx);
            let db = Arc::clone(db);
            applier_handles.push(scope.spawn(move || -> Result<u64, RecoveryError> {
                let mut applied = 0u64;
                while let Ok(batch) = rx.recv() {
                    for (tid, write) in batch {
                        let table = recovery_table(&db, write.table)?;
                        // SAFETY: recovery-mode exclusivity — no transactions
                        // run during recovery, and sharding by key hash means
                        // no other applier ever touches this key.
                        unsafe {
                            silo_core::bulk_apply(&table, &write.key, tid, write.value.as_deref());
                        }
                        applied += 1;
                    }
                }
                Ok(applied)
            }));
        }

        let mut decoder_handles = Vec::with_capacity(streams);
        for i in 0..streams {
            let senders = senders.clone();
            let replayed = &replayed;
            let skipped = &skipped;
            let covered = &covered;
            let bytes_scanned = &bytes_scanned;
            decoder_handles.push(scope.spawn(move || -> Result<(), RecoveryError> {
                let mut decoder = StreamDecoder::new(open(i));
                let mut batches: Vec<Vec<(Tid, LoggedWrite)>> = (0..senders.len())
                    .map(|_| Vec::with_capacity(BATCH))
                    .collect();
                // Corruption was counted by the pre-scan; here it ends replay
                // of this stream at the same point the pre-scan stopped.
                let mut corrupt = false;
                while let Some(block) = next_block_lenient(&mut decoder, &mut corrupt)? {
                    let Block::Txn(txn) = block else { continue };
                    let epoch = txn.tid.epoch();
                    if epoch <= ce {
                        covered.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if epoch > durable_epoch {
                        skipped.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    replayed.fetch_add(1, Ordering::Relaxed);
                    for write in txn.writes {
                        let shard = shard_of(write.table, &write.key, senders.len());
                        batches[shard].push((txn.tid, write));
                        if batches[shard].len() >= BATCH {
                            let batch =
                                std::mem::replace(&mut batches[shard], Vec::with_capacity(BATCH));
                            let _ = senders[shard].send(batch);
                        }
                    }
                }
                for (shard, batch) in batches.into_iter().enumerate() {
                    if !batch.is_empty() {
                        let _ = senders[shard].send(batch);
                    }
                }
                bytes_scanned.fetch_add(decoder.bytes_consumed(), Ordering::Relaxed);
                Ok(())
            }));
        }
        // Applier receivers terminate when the last sender clone is dropped.
        drop(senders);
        let decoder_results: Vec<Result<(), RecoveryError>> = decoder_handles
            .into_iter()
            .map(|h| h.join().expect("replay decoder panicked"))
            .collect();
        let applier_results: Vec<Result<u64, RecoveryError>> = applier_handles
            .into_iter()
            .map(|h| h.join().expect("replay applier panicked"))
            .collect();
        (decoder_results, applier_results)
    });
    for result in decoder_results {
        result?;
    }
    for result in applier_results {
        report.replayed_writes += result?;
    }
    report.replayed_txns = replayed.load(Ordering::Relaxed);
    report.skipped_txns = skipped.load(Ordering::Relaxed);
    report.covered_txns = covered.load(Ordering::Relaxed);
    report.log_bytes_scanned = bytes_scanned.load(Ordering::Relaxed);
    report.replay_micros = replay_start.elapsed().as_micros() as u64;

    // Reclaim tombstones. Replay installs absent records (delete tombstones
    // for unseen keys; final deletes of checkpointed keys) that would
    // otherwise stay hooked in the index until a future write happens to
    // touch them. Recovery still holds exclusive access, so they can be
    // unhooked and freed directly, one table per thread.
    if options.sweep_tombstones {
        let table_ids = db.table_ids();
        let next = AtomicU64::new(0);
        let reclaimed = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads.min(table_ids.len().max(1)) {
                let next = &next;
                let reclaimed = &reclaimed;
                let table_ids = &table_ids;
                let db = Arc::clone(db);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                    let Some(&table) = table_ids.get(i) else {
                        break;
                    };
                    let table = db.table(table);
                    // SAFETY: recovery-mode exclusivity — replay finished and
                    // no transactional workers run yet; each table is swept
                    // by exactly one thread.
                    let n = unsafe { silo_core::sweep_absent(&table) };
                    reclaimed.fetch_add(n, Ordering::Relaxed);
                });
            }
        });
        report.tombstones_reclaimed = reclaimed.load(Ordering::Relaxed);
    }

    // Fast-forward the epochs past everything recovered, far enough that the
    // next snapshot epoch covers the whole recovered state (§4.9:
    // `SE = snap(E − k)`); post-recovery commits, markers and snapshots all
    // sort after the recovered horizon.
    let k = db.epochs().config().snapshot_interval_epochs;
    db.epochs().advance_to(durable_epoch + 2 * k);

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{encode_epoch_marker, encode_txn};
    use crate::tests::{as_writes, scratch_dir, sealed};
    use silo_core::SiloConfig;

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

    /// Recovers `streams` into a fresh database with one table (id 0).
    fn recover(streams: &[Vec<u8>]) -> (Arc<Database>, RecoveryReport) {
        crate::tests::recovered("t", streams)
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
        snap.scan_versions_into(0, 64, |key, tid, value| {
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
    fn recover_into_keeps_original_tids_and_fast_forwards_the_epoch() {
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
        let db = Database::open(SiloConfig::for_testing());
        assert!(matches!(
            recover_into(&db, &[s]),
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

        // So do the in-memory streams, and no streams at all.
        for streams in [vec![Vec::new(), torn.to_vec()], Vec::new()] {
            let (db, report) = recover(&streams);
            assert_eq!(report.durable_epoch, 0);
            assert_eq!(db.table(0).approximate_len(), 0);
        }
        std::fs::remove_dir_all(&dir).unwrap();
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
        std::fs::remove_dir_all(&dir).unwrap();
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
    fn damaged_newer_checkpoint(name: &str, damage: impl Fn(&mut Vec<u8>)) -> PathBuf {
        use crate::checkpoint::tests::{slice_bytes, write_one_slice_checkpoint};
        let dir = scratch_dir(name);
        let good = slice_bytes(&[(0, b"k", Tid::new(3, 1), b"good")]);
        write_one_slice_checkpoint(&dir, 3, &good, 1);
        let mut newer = slice_bytes(&evil());
        damage(&mut newer);
        write_one_slice_checkpoint(&dir, 5, &newer, evil().len() as u64);
        dir
    }

    /// The newer checkpoint of [`damaged_newer_checkpoint`] is complete by
    /// its manifest, fails verification as `InvalidData`, and recovery falls
    /// back to the one at epoch 3.
    fn assert_falls_back_to_epoch_3(name: &str, damage: impl Fn(&mut Vec<u8>)) {
        let dir = damaged_newer_checkpoint(name, damage);
        let newest = crate::checkpoint::latest_checkpoint(&dir).expect("complete by manifest");
        assert_eq!(newest.epoch, 5);
        let err = crate::checkpoint::verify_checkpoint(&newest).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");

        let db = Database::open(SiloConfig::for_testing());
        db.create_table("t").unwrap();
        let report = recover_directory(&db, &dir, &RecoveryOptions::default()).unwrap();
        assert_eq!(report.checkpoints_skipped, 1);
        assert_eq!(report.checkpoint_epoch, 3);
        assert_eq!(read(&db, b"k"), Some(b"good".to_vec()));
        assert_eq!(read(&db, b"x"), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_falls_back_past_a_corrupt_checkpoint() {
        assert_falls_back_to_epoch_3("ckpt-fallback", |slice| {
            let last = slice.len() - 1;
            slice[last] ^= 0x01;
        });
    }

    #[test]
    fn slice_with_a_damaged_first_tag_is_rejected_and_recovery_falls_back() {
        assert_falls_back_to_epoch_3("ckpt-tag", |slice| slice[0] ^= 0x20);
    }

    #[test]
    fn slice_with_an_inflated_envelope_length_is_rejected_and_recovery_falls_back() {
        // The decoder reads the now-short envelope as a torn tail — a clean
        // end for a log, never for a slice.
        assert_falls_back_to_epoch_3("ckpt-length", |slice| slice[4] ^= 0x01);
    }

    #[test]
    fn slice_missing_a_record_is_rejected_and_recovery_falls_back() {
        assert_falls_back_to_epoch_3("ckpt-short", |slice| {
            *slice = crate::checkpoint::tests::slice_bytes(&evil()[..1]);
        });
    }

    #[test]
    fn slice_holding_an_epoch_marker_is_rejected_and_recovery_falls_back() {
        assert_falls_back_to_epoch_3("ckpt-marker", |slice| {
            let [(_, k, k_tid, k_value), (_, x, x_tid, x_value)] = evil();
            *slice = round(&[
                txn_block(k_tid, 0, k, Some(k_value)),
                marker(5),
                txn_block(x_tid, 0, x, Some(x_value)),
            ]);
        });
    }
}
