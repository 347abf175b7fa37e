//! Checkpointing: periodic consistent snapshots of the whole database,
//! written to disk in parallel slices, so recovery replays only a log *tail*
//! and log growth stays bounded (paper §4.9/§4.10; SiloR refines the same
//! design).
//!
//! # On-disk layout
//!
//! Under the durability root directory (the same directory the log segments
//! live in):
//!
//! ```text
//! <root>/
//!   silo-log-<logger>-seg<seq>.bin      log segments
//!   checkpoints/
//!     ckpt-<epoch:016x>/
//!       slice-<i>.bin                   one file per checkpoint writer
//!       MANIFEST                        written last; its presence makes the
//!                                       checkpoint complete
//! ```
//!
//! A slice is written in the log's own format ([`crate::record`]): CRC-sealed
//! envelopes of about 64 KiB, each holding whole transaction blocks, one per
//! live record — `table | key | value` as a single write at the commit TID of
//! its version. Together the slices hold the live records of a consistent
//! snapshot at the checkpoint epoch; deleted keys are simply not present
//! (recovery starts from an empty database). Slices are read back by the
//! log's [`StreamDecoder`], which verifies each envelope's CRC-32C before it
//! parses anything inside.
//!
//! Unlike a log stream, a slice is **strict**. It was fsynced before its
//! manifest was written, so it is either whole or damaged; it has no torn
//! tail to tolerate. Recovery reads each slice once, as it loads it, and
//! rejects it with `io::ErrorKind::InvalidData` when:
//!
//! * the decoder returns an error (a failed CRC, a bad tag);
//! * the decoder stops short of the slice's byte count in the manifest. It
//!   reads a torn final envelope as a clean end of stream, and in a slice
//!   that can only be damage, such as an inflated length field;
//! * the number of decoded records differs from the manifest's count;
//! * it holds any block other than a single-write transaction block with a
//!   value, such as an epoch marker or a delete.
//!
//! The manifest is renamed into place last, so after that only damage can
//! make it unparsable, name another epoch than its directory, or claim
//! another length than a slice has. Recovery reads the newest checkpoint
//! with a manifest and fails with [`crate::RecoveryError::Checkpoint`] on
//! any of this rather than load silently corrupt state, or none. The load is
//! all or nothing: every table's run is held unpublished until every slice
//! has passed, so a slice that fails leaves all tables empty. Recovery has
//! nothing to fall back to: the log before the checkpoint epoch is
//! truncated, and the checkpointer keeps only the newest complete
//! checkpoint.
//!
//! # Protocol
//!
//! A name survives a power loss only once its parent directory is fsynced,
//! so each step makes its names durable before the next relies on them.
//!
//! 1. Pick the current global snapshot epoch `ce` and walk every table on
//!    `writers` threads via [`silo_core::SnapshotTxn::scan_versions`] — a
//!    consistent cut that runs concurrently with commits and never blocks
//!    them, read through the same validated version read as every other
//!    snapshot read. A table goes whole, in key order, into one slice, and
//!    recovery builds it bottom-up from that run. Creating `checkpoints/`
//!    fsyncs the root, creating `ckpt-<ce>` fsyncs `checkpoints/`, and
//!    creating each slice fsyncs `ckpt-<ce>`.
//! 2. fsync the slices, wait until the durable epoch reaches `ce`, then
//!    publish `MANIFEST`: write a temp file, sync it, rename it into place
//!    and fsync `ckpt-<ce>`; a failed fsync fails the attempt. Waiting first
//!    guarantees that any crash after the manifest exists recovers a durable
//!    horizon `≥ ce`.
//! 3. Ask the logger to truncate: segments whose records all have epochs
//!    `≤ ce` are redundant — the checkpoint covers them — and are deleted.
//!    Every name and byte of the checkpoint is durable by now.
//! 4. Delete every older checkpoint.

use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex as StdMutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use silo_core::{CommitWrite, Database, Table, TableId, TableLoad, Tid, Worker};

use crate::fault::{FaultKind, FaultSite, InjectedCrash};
use crate::fs::{Fs, RealFs};
use crate::record::{self, BlockRef, DecodeError, StreamDecoder};
use crate::recovery::{run_error, Run, Tail};
use crate::{lock, RecoveryError, SiloLogger};

/// Name of the per-checkpoint completeness marker / metadata file.
const MANIFEST: &str = "MANIFEST";
/// First line of every manifest: the one checkpoint format.
const MANIFEST_HEADER: &str = "silo-checkpoint v3";
/// Subdirectory of the durability root holding checkpoints.
const CHECKPOINT_DIR: &str = "checkpoints";
/// Target payload size of one sealed envelope (closed at record boundaries).
const SLICE_FRAME: usize = 64 * 1024;
/// How long a checkpoint waits for its epoch to become durable before it is
/// abandoned.
const DURABLE_TIMEOUT: Duration = Duration::from_secs(30);
/// Index keys scanned per chunk while walking a table: bounds memory and the
/// epoch-pin granularity of the walk, and the pacer sleeps between chunks.
const WALK_CHUNK: usize = 1024;

/// Fails with an `io::Error` carrying an injected crash when the logger's
/// fault plan schedules one at `site`, so `run_once` aborts *without
/// cleanup* — simulating `kill -9` at a protocol-critical instant.
fn crash_point(shared: &CheckpointerShared, site: FaultSite) -> std::io::Result<()> {
    match &shared.logger.config().fault {
        Some(plan) if plan.next_fault(site) == Some(FaultKind::Crash) => {
            Err(std::io::Error::other(InjectedCrash(site)))
        }
        _ => Ok(()),
    }
}

/// Checkpointer configuration.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// The durability root directory (same as the log directory).
    pub root: PathBuf,
    /// Period between checkpoint attempts.
    pub interval: Duration,
    /// Number of parallel slice-writer threads.
    pub writers: usize,
    /// Rate limit for the table walk, in serialized bytes per second summed
    /// across all writer threads (0 = unthrottled). On machines where the
    /// walk competes with workers for CPU, pacing keeps the checkpoint from
    /// starving commit throughput — at the cost of a longer walk, so budget
    /// it well above `database size / checkpoint interval`.
    pub max_walk_bytes_per_sec: u64,
}

impl CheckpointConfig {
    /// A configuration rooted at `root` with defaults suitable for
    /// production-ish runs.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            root: root.into(),
            interval: Duration::from_secs(10),
            writers: 2,
            max_walk_bytes_per_sec: 0,
        }
    }
}

/// Cumulative checkpointer counters (see [`Checkpointer::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Checkpoints completed (manifest written).
    pub completed: u64,
    /// Attempts skipped because the snapshot epoch had not advanced.
    pub skipped: u64,
    /// Attempts abandoned (durability wait timed out or I/O failed).
    pub failed: u64,
    /// Epoch of the most recent complete checkpoint.
    pub last_epoch: u64,
    /// Records written by the most recent complete checkpoint.
    pub last_records: u64,
    /// Bytes written by the most recent complete checkpoint.
    pub last_bytes: u64,
    /// Wall-clock microseconds the most recent complete checkpoint took
    /// (walk + fsync + durability wait + manifest).
    pub last_micros: u64,
    /// Bytes written by all completed checkpoints.
    pub total_bytes: u64,
}

impl CheckpointStats {
    /// Write rate of the most recent checkpoint, in bytes per second.
    pub fn last_write_rate(&self) -> f64 {
        if self.last_micros == 0 {
            return 0.0;
        }
        self.last_bytes as f64 / (self.last_micros as f64 / 1e6)
    }
}

struct CheckpointerShared {
    config: CheckpointConfig,
    db: Arc<Database>,
    logger: Arc<SiloLogger>,
    /// Written once per attempt. Not under `last_epoch`, which a checkpoint
    /// holds across its durability wait.
    stats: StdMutex<CheckpointStats>,
    /// Epoch of the last complete checkpoint. The lock serializes checkpoint
    /// runs (the periodic thread vs. `run_now`).
    last_epoch: StdMutex<u64>,
    stop: AtomicBool,
    stop_cv: Condvar,
    /// Paired with `stop_cv` for the interval sleep.
    stop_mutex: StdMutex<()>,
}

/// A finished table walk: the slices are on disk and synced, nothing is
/// published yet.
struct Walk {
    epoch: u64,
    dir: PathBuf,
    /// `(bytes, records)` per slice.
    slices: Vec<(u64, u64)>,
    started: Instant,
}

/// The checkpointer: owns a background thread that periodically writes
/// consistent, epoch-stamped checkpoints and truncates the log behind them.
pub struct Checkpointer {
    shared: Arc<CheckpointerShared>,
    handle: parking_lot::Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for Checkpointer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpointer")
            .field("root", &self.shared.config.root)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Checkpointer {
    /// Spawns the checkpointer thread.
    pub fn spawn(
        db: Arc<Database>,
        logger: Arc<SiloLogger>,
        config: CheckpointConfig,
    ) -> Arc<Checkpointer> {
        let shared = Arc::new(CheckpointerShared {
            config,
            db,
            logger,
            stats: StdMutex::default(),
            last_epoch: StdMutex::new(0),
            stop: AtomicBool::new(false),
            stop_cv: Condvar::new(),
            stop_mutex: StdMutex::new(()),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("silo-checkpointer".to_string())
            .spawn(move || {
                loop {
                    // Interruptible interval sleep.
                    {
                        let guard = lock(&thread_shared.stop_mutex);
                        if !thread_shared.stop.load(Ordering::Acquire) {
                            drop(
                                thread_shared
                                    .stop_cv
                                    .wait_timeout(guard, thread_shared.config.interval)
                                    .unwrap_or_else(PoisonError::into_inner),
                            );
                        }
                    }
                    if thread_shared.stop.load(Ordering::Acquire) {
                        return;
                    }
                    if let Err(e) = run_once(&thread_shared) {
                        lock(&thread_shared.stats).failed += 1;
                        eprintln!("silo-checkpointer: checkpoint failed: {e}");
                    }
                }
            })
            .expect("spawn checkpointer thread");
        Arc::new(Checkpointer {
            shared,
            handle: parking_lot::Mutex::new(Some(handle)),
        })
    }

    /// Runs one checkpoint attempt synchronously (used by benchmarks and
    /// tests). Returns the epoch of the checkpoint written, or `None` if the
    /// attempt was skipped (snapshot epoch unchanged) or abandoned.
    pub fn run_now(&self) -> std::io::Result<Option<u64>> {
        run_once(&self.shared)
    }

    /// A snapshot of the checkpointer's counters.
    pub fn stats(&self) -> CheckpointStats {
        lock(&self.shared.stats).clone()
    }

    /// Stops the checkpointer thread (a checkpoint in flight completes
    /// first).
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
        {
            let _guard = lock(&self.shared.stop_mutex);
            self.shared.stop_cv.notify_all();
        }
        if let Some(handle) = self.handle.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The directory holding all checkpoints under `root`.
fn checkpoints_root(root: &Path) -> PathBuf {
    root.join(CHECKPOINT_DIR)
}

fn checkpoint_dir(root: &Path, epoch: u64) -> PathBuf {
    checkpoints_root(root).join(format!("ckpt-{epoch:016x}"))
}

fn parse_checkpoint_dir(name: &str) -> Option<u64> {
    u64::from_str_radix(name.strip_prefix("ckpt-")?, 16).ok()
}

/// Every checkpoint directory under `root` with its epoch, complete or not.
fn checkpoint_dirs(fs: &dyn Fs, root: &Path) -> Vec<(u64, PathBuf)> {
    let dir = checkpoints_root(root);
    let names = fs.list(&dir).unwrap_or_default();
    names
        .into_iter()
        .filter_map(|name| Some((parse_checkpoint_dir(&name)?, dir.join(name))))
        .collect()
}

fn slice_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("slice-{index}.bin"))
}

/// Writes one slice: each live record becomes a single-write transaction
/// block at its version's TID, sealed into envelopes of about
/// [`SLICE_FRAME`] bytes. Records never span envelopes.
struct SliceWriter<W> {
    out: W,
    /// The open envelope, its header at offset 0.
    frame: Vec<u8>,
    bytes: u64,
    records: u64,
}

impl<W: Write> SliceWriter<W> {
    fn new(out: W) -> Self {
        let mut frame = Vec::with_capacity(SLICE_FRAME + 4096);
        record::begin_sealed(&mut frame);
        SliceWriter {
            out,
            frame,
            bytes: 0,
            records: 0,
        }
    }

    /// Appends one record, returning the bytes its block adds.
    fn push(&mut self, table: TableId, key: &[u8], tid: Tid, value: &[u8]) -> std::io::Result<u64> {
        let before = self.frame.len();
        let write = CommitWrite {
            table,
            key,
            value: Some(value),
        };
        record::encode_txn(&mut self.frame, tid, [write], false);
        let added = (self.frame.len() - before) as u64;
        self.records += 1;
        if self.frame.len() >= SLICE_FRAME {
            self.seal_frame()?;
        }
        Ok(added)
    }

    /// Seals and writes the open envelope, unless it is empty, and opens the
    /// next one.
    fn seal_frame(&mut self) -> std::io::Result<()> {
        if record::seal(&mut self.frame, 0) {
            self.out.write_all(&self.frame)?;
            self.bytes += self.frame.len() as u64;
        }
        self.frame.clear();
        record::begin_sealed(&mut self.frame);
        Ok(())
    }

    /// Seals the last envelope and returns the sink with the slice's
    /// `(bytes, records)`.
    fn finish(mut self) -> std::io::Result<(W, u64, u64)> {
        self.seal_frame()?;
        Ok((self.out, self.bytes, self.records))
    }
}

/// One checkpoint attempt: see the module docs for the protocol.
fn run_once(shared: &CheckpointerShared) -> std::io::Result<Option<u64>> {
    // A consistent checkpoint needs the snapshot mechanism: without it the
    // walk would read the live head of every record — a fuzzy cut that can
    // capture transactions beyond the eventual recovery horizon.
    if !shared.db.config().enable_snapshots {
        return Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "checkpointing requires enable_snapshots",
        ));
    }
    let mut last_epoch = lock(&shared.last_epoch);
    match walk(shared, *last_epoch)? {
        Some(walk) => publish(shared, &mut last_epoch, walk),
        None => Ok(None),
    }
}

/// Step 1: writes and syncs the slices of a consistent snapshot. `None` means
/// the snapshot epoch has not moved since the last complete checkpoint.
///
/// Each table is walked whole, in key order, by one writer into its slice:
/// the one sorted run that recovery builds the table from.
///
/// The walk's workers live for this attempt only. Dropping them on return,
/// however the walk ended, frees their slots and leaves none of them inside
/// an epoch, where they would hold back reclamation, the epoch advance, and
/// the durable epoch the next step waits for.
fn walk(shared: &CheckpointerShared, last_epoch: u64) -> std::io::Result<Option<Walk>> {
    // Pin the chosen snapshot for the whole checkpoint: this worker's `se_w`
    // bounds the snapshot reclamation epoch, so no version the `ce` snapshot
    // can reach is freed while the writers re-pin table by table (each
    // writer's own pin has per-table gaps — the txn boundary inside
    // `begin_snapshot_at`).
    let mut pin_worker = shared.db.register_worker();
    let pin = pin_worker.begin_snapshot();
    let ce = pin.snapshot_epoch();
    if ce == 0 || ce <= last_epoch {
        lock(&shared.stats).skipped += 1;
        return Ok(None);
    }
    let started = Instant::now();
    let fs = &*shared.logger.fs;
    let dir = checkpoint_dir(&shared.config.root, ce);
    // A leftover directory for this epoch can only be an earlier incomplete
    // attempt (complete ones bump `last_epoch`).
    fs.remove_dir(&dir)?;
    fs.create_dir(&dir)?;

    // Walk every table in parallel slices: a shared work queue of table ids,
    // one slice file per writer thread.
    let tables = shared.db.table_ids();
    let writers = shared.config.writers.clamp(1, tables.len().max(1));
    let mut walkers: Vec<Worker> = (0..writers).map(|_| shared.db.register_worker()).collect();
    let next_table = AtomicUsize::new(0);
    // One pacer shared by every writer: the configured rate is a global
    // budget for the whole walk, not per-thread.
    let pacer = match shared.config.max_walk_bytes_per_sec {
        0 => None,
        rate => Some(silo_core::WalkPacer::new(rate)),
    };
    let mut slices: Vec<(u64, u64)> = Vec::with_capacity(writers); // (bytes, records)
    let results: Vec<std::io::Result<(u64, u64)>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(writers);
        for (w, worker) in walkers.iter_mut().enumerate() {
            let tables = &tables;
            let next_table = &next_table;
            let pacer = pacer.as_ref();
            let path = slice_path(&dir, w);
            handles.push(scope.spawn(move || -> std::io::Result<(u64, u64)> {
                let mut slice = SliceWriter::new(BufWriter::new(fs.create(&path)?));
                loop {
                    let i = next_table.fetch_add(1, Ordering::Relaxed);
                    let Some(&table) = tables.get(i) else { break };
                    crash_point(shared, FaultSite::CkptSlice)?;
                    let mut snap = worker.begin_snapshot_at(ce);
                    let mut io_err: Option<std::io::Error> = None;
                    snap.scan_versions(table, WALK_CHUNK, pacer, |key, tid, value| {
                        if io_err.is_some() {
                            return;
                        }
                        match slice.push(table, key, tid, value) {
                            Ok(added) => {
                                if let Some(p) = pacer {
                                    p.note(added);
                                }
                            }
                            Err(e) => io_err = Some(e),
                        }
                    });
                    snap.finish();
                    if let Some(e) = io_err {
                        return Err(e);
                    }
                }
                let (mut out, bytes, records) = slice.finish()?;
                out.flush()?;
                out.get_ref().sync_data()?;
                Ok((bytes, records))
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("checkpoint writer panicked"))
            .collect()
    });
    for result in results {
        match result {
            Ok(pair) => slices.push(pair),
            Err(e) => {
                // An injected crash simulates `kill -9`: leave the partial
                // slice directory behind exactly as a real crash would, so
                // recovery is exercised against the mess.
                if !crate::fault::is_injected_crash(&e) {
                    let _ = fs.remove_dir(&dir);
                }
                return Err(e);
            }
        }
    }
    pin.finish();
    Ok(Some(Walk {
        epoch: ce,
        dir,
        slices,
        started,
    }))
}

/// Steps 2–4: waits for the walked epoch to be durable, then publishes the
/// checkpoint and drops what it supersedes.
fn publish(
    shared: &CheckpointerShared,
    last_epoch: &mut u64,
    walk: Walk,
) -> std::io::Result<Option<u64>> {
    let Walk {
        epoch: ce,
        dir,
        slices,
        started,
    } = walk;
    let fs = &*shared.logger.fs;
    // The checkpoint claims every transaction with epoch ≤ ce; only publish
    // it once the log guarantees that claim survives a crash.
    if !shared
        .logger
        .wait_for_durable(ce, DURABLE_TIMEOUT)
        .is_durable()
    {
        let _ = fs.remove_dir(&dir);
        lock(&shared.stats).failed += 1;
        return Ok(None);
    }

    crash_point(shared, FaultSite::CkptBeforeManifest)?;

    // The manifest's durable rename is the atomic "checkpoint complete" bit.
    let mut manifest = format!("{MANIFEST_HEADER}\n");
    manifest.push_str(&format!("epoch {ce}\n"));
    manifest.push_str(&format!("slices {}\n", slices.len()));
    for (i, (bytes, records)) in slices.iter().enumerate() {
        manifest.push_str(&format!("slice {i} {bytes} {records}\n"));
    }
    manifest.push_str("end\n");
    fs.publish(&dir.join(MANIFEST), manifest.as_bytes())?;
    crash_point(shared, FaultSite::CkptAfterManifest)?;
    crash_point(shared, FaultSite::CkptBeforeTruncate)?;

    // The checkpoint is durable: logs covering epochs ≤ ce are redundant.
    shared.logger.truncate_logs(ce);

    // Older checkpoints (and any stale incomplete attempt) are superseded. No
    // older one is kept as a fallback: the log behind it is truncated, so
    // recovering from it would silently lose every transaction up to `ce`.
    for (epoch, dir) in checkpoint_dirs(fs, &shared.config.root) {
        if epoch < ce {
            let _ = fs.remove_dir(&dir);
        }
    }

    let bytes: u64 = slices.iter().map(|(b, _)| *b).sum();
    let mut stats = lock(&shared.stats);
    stats.completed += 1;
    stats.last_epoch = ce;
    stats.last_records = slices.iter().map(|(_, r)| *r).sum();
    stats.last_bytes = bytes;
    stats.last_micros = started.elapsed().as_micros() as u64;
    stats.total_bytes += bytes;
    *last_epoch = ce;
    Ok(Some(ce))
}

// ---------------------------------------------------------------------------
// Reading checkpoints back (recovery side)
// ---------------------------------------------------------------------------

/// A complete checkpoint found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CheckpointInfo {
    /// The checkpoint epoch: every transaction with epoch `≤` this value is
    /// reflected in the checkpoint.
    pub(crate) epoch: u64,
    /// Per-slice `(path, bytes, records)` as recorded by the manifest.
    pub(crate) slices: Vec<(PathBuf, u64, u64)>,
}

fn read_manifest(dir: &Path) -> Option<CheckpointInfo> {
    let text = std::io::read_to_string(RealFs.read(&dir.join(MANIFEST)).ok()?).ok()?;
    let mut lines = text.lines();
    if lines.next()? != MANIFEST_HEADER {
        return None;
    }
    let epoch: u64 = lines.next()?.strip_prefix("epoch ")?.parse().ok()?;
    if parse_checkpoint_dir(dir.file_name()?.to_str()?) != Some(epoch) {
        return None;
    }
    let count: usize = lines.next()?.strip_prefix("slices ")?.parse().ok()?;
    let mut slices: Vec<(PathBuf, u64, u64)> = Vec::with_capacity(count);
    for line in lines {
        if line == "end" {
            if slices.len() != count {
                return None;
            }
            // Validate the slice files against the manifest: a slice that is
            // missing or short means the checkpoint must not be trusted.
            for (path, bytes, _) in &slices {
                if RealFs.len(path).ok()? != *bytes {
                    return None;
                }
            }
            return Some(CheckpointInfo { epoch, slices });
        }
        let rest = line.strip_prefix("slice ")?;
        let mut parts = rest.split(' ');
        let index: usize = parts.next()?.parse().ok()?;
        let bytes: u64 = parts.next()?.parse().ok()?;
        let records: u64 = parts.next()?.parse().ok()?;
        slices.push((slice_path(dir, index), bytes, records));
    }
    None
}

/// The newest checkpoint under `root` that has a manifest, with its epoch.
/// Only the manifest is read here; [`build_tables`] holds each slice to
/// it. The manifest's rename is what makes a checkpoint complete, so after it
/// only damage can make the manifest unreadable: an `InvalidData` error.
pub(crate) fn newest_checkpoint(root: &Path) -> Option<(u64, std::io::Result<CheckpointInfo>)> {
    let (epoch, dir) = checkpoint_dirs(&RealFs, root)
        .into_iter()
        .filter(|(_, dir)| RealFs.len(&dir.join(MANIFEST)).is_ok())
        .max_by_key(|(epoch, _)| *epoch)?;
    let info = read_manifest(&dir).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "checkpoint manifest is damaged or disagrees with its slices",
        )
    });
    Some((epoch, info))
}

/// Streams the records of one slice, whose manifest claims `bytes` and
/// `records`, through the log's decoder into `apply(tid, table, key,
/// value)`. Any breach of the strict rules of the module docs is an
/// `InvalidData` error.
fn read_slice<E: From<std::io::Error>>(
    reader: impl Read,
    bytes: u64,
    records: u64,
    mut apply: impl FnMut(Tid, TableId, &[u8], &[u8]) -> Result<(), E>,
) -> Result<(), E> {
    let invalid = |why: String| -> E {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("checkpoint slice {why}"),
        )
        .into()
    };
    let mut decoder = StreamDecoder::new(reader);
    let mut seen = 0u64;
    let mut failed = None;
    loop {
        let more = decoder.next_envelope_with(false, |block| {
            if failed.is_some() {
                return;
            }
            let applied = match block {
                BlockRef::Txn(tid, mut writes) if writes.len() == 1 => match writes.next() {
                    Some((table, key, Some(value))) => apply(tid, table, key, value),
                    _ => Err(invalid("holds a delete".into())),
                },
                _ => Err(invalid("holds a block that is not one live record".into())),
            };
            match applied {
                Ok(()) => seen += 1,
                Err(e) => failed = Some(e),
            }
        });
        if let Some(e) = failed {
            return Err(e);
        }
        match more {
            Ok(true) => {}
            Ok(false) => break,
            Err(DecodeError::Io(kind)) => return Err(std::io::Error::from(kind).into()),
            Err(e) => return Err(invalid(e.to_string())),
        }
    }
    let consumed = decoder.bytes_consumed();
    if consumed != bytes {
        return Err(invalid(format!("decodes to byte {consumed} of {bytes}")));
    }
    if seen != records {
        return Err(invalid(format!(
            "holds {seen} records, its manifest {records}"
        )));
    }
    Ok(())
}

/// Builds every table of `db` bottom-up with up to `threads` loaders: each
/// table the `checkpoint` holds from its run merged with its log tail (see
/// [`Run`]), then each other table the `tails` write from its tail alone.
/// The tables must already be recreated (with the same ids as before the
/// crash) and be empty. A slice holds each of its tables as one run in key
/// order (see `walk`).
///
/// This is the one read of the slices, so it is all or nothing. Every run is
/// held unpublished until all loaders have read their slices through the
/// strict checks of [`read_slice`], and is published only if none failed:
/// on success every slice held exactly what the manifest claims. A damaged
/// or unreadable slice is [`RecoveryError::Checkpoint`], and a table met in
/// two runs is [`RecoveryError::Apply`]; either way every load is dropped,
/// its records released, and every table stays empty.
pub(crate) fn build_tables(
    db: &Arc<Database>,
    checkpoint: Option<&CheckpointInfo>,
    tail: &Tail,
    threads: usize,
) -> Result<(), RecoveryError> {
    // Each table with whether a run has claimed it yet.
    let tables: Vec<(TableId, Arc<Table>, AtomicBool)> = db
        .table_ids()
        .into_iter()
        .map(|id| (id, db.table(id), AtomicBool::new(false)))
        .collect();
    let slices = checkpoint.map_or(&[][..], |info| &info.slices);
    let threads = threads.clamp(1, slices.len().max(1));
    let next_slice = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    // A `TableLoad` cannot leave its thread, so each loader publishes its
    // own runs, once every loader is past this barrier. A loader that
    // panics still reaches it, so the others do not wait forever.
    let all_read = Barrier::new(threads);
    crate::recovery::in_parallel(threads, |_| {
        let mut runs = Vec::new();
        let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            load_slices(&tables, tail, slices, &next_slice, &mut runs)
        }));
        failed.fetch_or(!matches!(read, Ok(Ok(()))), Ordering::Relaxed);
        all_read.wait();
        read.unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
        if !failed.load(Ordering::Relaxed) {
            for (id, load) in runs {
                load.publish().map_err(|e| run_error(id, e))?;
            }
        }
        Ok(())
    })
    .map_err(|e| match (e, checkpoint) {
        // Only reading a slice fails with an I/O error.
        (RecoveryError::Io(error), Some(info)) => RecoveryError::Checkpoint {
            epoch: info.epoch,
            error,
        },
        (e, _) => e,
    })?;

    // The tables no run claimed, from their tail alone.
    for (id, _, claimed) in &tables {
        if !claimed.load(Ordering::Relaxed) {
            let (id, load) = Run::start(&tables, tail, *id)?.finish()?;
            load.publish().map_err(|e| run_error(id, e))?;
        }
    }
    Ok(())
}

/// One loader of [`build_tables`]: takes slices off the shared queue until
/// none is left, and reads each into a finished run in `runs` per table it
/// holds.
fn load_slices<'t>(
    tables: &'t [(TableId, Arc<Table>, AtomicBool)],
    tail: &'t Tail,
    slices: &[(PathBuf, u64, u64)],
    next_slice: &AtomicUsize,
    runs: &mut Vec<(TableId, TableLoad<'t>)>,
) -> Result<(), RecoveryError> {
    while let Some((path, slice_bytes, slice_records)) =
        slices.get(next_slice.fetch_add(1, Ordering::Relaxed))
    {
        let mut open: Option<Run<'t>> = None;
        read_slice(
            RealFs.read(path)?,
            *slice_bytes,
            *slice_records,
            |tid, table, key, value| {
                if open.as_ref().map(|run| run.table) != Some(table) {
                    if let Some(run) = open.replace(Run::start(tables, tail, table)?) {
                        runs.push(run.finish()?);
                    }
                }
                open.as_mut()
                    .expect("a run is open")
                    .push(Some((key, tid, value)))
            },
        )?;
        if let Some(run) = open {
            runs.push(run.finish()?);
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::testkit::{as_writes, scratch_dir};

    /// A slice holding `records`, written by the checkpointer's own encoder.
    pub(crate) fn slice_bytes(records: &[(TableId, &[u8], Tid, &[u8])]) -> Vec<u8> {
        let mut slice = SliceWriter::new(Vec::new());
        for &(table, key, tid, value) in records {
            slice.push(table, key, tid, value).unwrap();
        }
        slice.finish().unwrap().0
    }

    /// Writes a checkpoint at `epoch` under the durability root `root`, one
    /// slice per `(slice, records)`, whose manifest claims each slice's
    /// length and its `records` records.
    pub(crate) fn write_checkpoint(root: &Path, epoch: u64, slices: &[(&[u8], u64)]) {
        let dir = checkpoint_dir(root, epoch);
        std::fs::create_dir_all(&dir).unwrap();
        let mut manifest = format!(
            "{MANIFEST_HEADER}\nepoch {epoch}\nslices {}\n",
            slices.len()
        );
        for (i, (slice, records)) in slices.iter().enumerate() {
            std::fs::write(slice_path(&dir, i), slice).unwrap();
            manifest.push_str(&format!("slice {i} {} {records}\n", slice.len()));
        }
        std::fs::write(dir.join(MANIFEST), manifest + "end\n").unwrap();
    }

    /// The newest checkpoint under `root` with a manifest: its epoch, and
    /// the kind of error reading it, if any.
    fn newest(root: &Path) -> Option<(u64, Result<CheckpointInfo, std::io::ErrorKind>)> {
        newest_checkpoint(root).map(|(epoch, info)| (epoch, info.map_err(|e| e.kind())))
    }

    #[test]
    fn manifest_roundtrip_and_incomplete_detection() {
        let root = scratch_dir("ckpt-manifest");
        let slice = slice_bytes(&[
            (0, b"a", Tid::from_raw(1), b"1"),
            (0, b"b", Tid::from_raw(2), b"2"),
            (0, b"c", Tid::from_raw(3), b"3"),
        ]);
        let dir = checkpoint_dir(&root, 42);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(slice_path(&dir, 0), &slice).unwrap();
        assert!(newest(&root).is_none(), "no manifest means no checkpoint");
        let manifest = |version: u32| {
            format!(
                "silo-checkpoint v{version}\nepoch 42\nslices 1\nslice 0 {} 3\nend\n",
                slice.len()
            )
        };
        std::fs::write(dir.join(MANIFEST), manifest(3)).unwrap();
        let (epoch, info) = newest(&root).expect("complete checkpoint");
        let info = info.unwrap();
        assert_eq!((epoch, info.epoch), (42, 42));
        assert_eq!(info.slices, [(slice_path(&dir, 0), slice.len() as u64, 3)]);

        // A slice shorter than the manifest claims invalidates the checkpoint.
        std::fs::write(slice_path(&dir, 0), &slice[..4]).unwrap();
        let invalid = Some((42, Err(std::io::ErrorKind::InvalidData)));
        assert_eq!(newest(&root), invalid);

        // So does a manifest of any other format version.
        std::fs::write(slice_path(&dir, 0), &slice).unwrap();
        std::fs::write(dir.join(MANIFEST), manifest(2)).unwrap();
        assert_eq!(newest(&root), invalid);
    }

    #[test]
    fn latest_checkpoint_picks_max_epoch() {
        let root = scratch_dir("ckpt-latest");
        for epoch in [7u64, 19, 12] {
            let dir = checkpoint_dir(&root, epoch);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(
                dir.join(MANIFEST),
                format!("{MANIFEST_HEADER}\nepoch {epoch}\nslices 0\nend\n"),
            )
            .unwrap();
        }
        let (epoch, info) = newest(&root).expect("complete checkpoint");
        assert_eq!((epoch, info.map(|info| info.epoch)), (19, Ok(19)));
    }

    /// Removing the newest complete checkpoint each time yields the complete
    /// ones newest first; an incomplete attempt is never among them.
    #[test]
    fn complete_checkpoints_lists_newest_first() {
        let root = scratch_dir("ckpt-complete");
        for epoch in [4u64, 9, 6] {
            let dir = checkpoint_dir(&root, epoch);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(
                dir.join(MANIFEST),
                format!("{MANIFEST_HEADER}\nepoch {epoch}\nslices 0\nend\n"),
            )
            .unwrap();
        }
        // An incomplete attempt (no manifest) is not a checkpoint.
        std::fs::create_dir_all(checkpoint_dir(&root, 11)).unwrap();
        let mut epochs = Vec::new();
        while let Some((epoch, info)) = newest(&root) {
            assert_eq!(info.map(|info| info.epoch), Ok(epoch));
            epochs.push(epoch);
            std::fs::remove_dir_all(checkpoint_dir(&root, epoch)).unwrap();
        }
        assert_eq!(epochs, vec![9, 6, 4]);
    }

    /// The records of `slice`, read against a manifest that claims its
    /// length and `records` records.
    fn read_all(
        slice: &[u8],
        records: u64,
    ) -> std::io::Result<Vec<(TableId, Vec<u8>, Tid, Vec<u8>)>> {
        let mut out = Vec::new();
        read_slice(
            slice,
            slice.len() as u64,
            records,
            |tid, table, key, value| {
                out.push((table, key.to_vec(), tid, value.to_vec()));
                Ok::<(), std::io::Error>(())
            },
        )?;
        Ok(out)
    }

    #[test]
    fn framed_slice_roundtrip_and_bit_flip_detection() {
        let slice = slice_bytes(&[
            (1, b"alice", Tid::from_raw(77), b"100"),
            (2, b"", Tid::from_raw(78), b""),
        ]);
        assert_eq!(
            slice[0],
            record::BLOCK_CHECKSUMMED,
            "a slice is sealed rounds"
        );
        assert_eq!(
            read_all(&slice, 2).unwrap(),
            vec![
                (1, b"alice".to_vec(), Tid::from_raw(77), b"100".to_vec()),
                (2, Vec::new(), Tid::from_raw(78), Vec::new()),
            ]
        );
        assert_eq!(read_all(&[], 0).unwrap(), Vec::new(), "an empty slice");

        // Records that fill several envelopes come back whole and in order.
        let value = [7u8; 1000];
        let keys: Vec<[u8; 4]> = (0..200u32).map(u32::to_be_bytes).collect();
        let many: Vec<(TableId, &[u8], Tid, &[u8])> = keys
            .iter()
            .map(|key| (3, key.as_slice(), Tid::from_raw(9), value.as_slice()))
            .collect();
        let big = slice_bytes(&many);
        assert!(big.len() > 2 * SLICE_FRAME);
        let back = read_all(&big, 200).unwrap();
        assert!(back
            .iter()
            .map(|r| r.1.as_slice())
            .eq(keys.iter().map(|k| k.as_slice())));

        // Any flipped bit in an envelope's payload is a typed error.
        let mut corrupt = slice.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x04;
        let err = read_all(&corrupt, 2).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn slice_breaking_a_strict_rule_is_a_typed_error() {
        let tid = Tid::from_raw(9);
        let good = slice_bytes(&[(3, b"k", tid, b"v")]);
        let sealed = |fill: &dyn Fn(&mut Vec<u8>)| {
            let mut out = Vec::new();
            let header = record::begin_sealed(&mut out);
            fill(&mut out);
            record::seal(&mut out, header);
            out
        };
        let mut bad_tag = good.clone();
        bad_tag[0] ^= 0x20;
        // The high byte of the envelope's length: the decoder reads the
        // short envelope as torn, a clean end of a log.
        let mut inflated = good.clone();
        inflated[4] ^= 0x01;
        // Every record is there, but a torn envelope header follows them:
        // only the byte count tells.
        let torn_tail = [good.as_slice(), &[record::BLOCK_CHECKSUMMED, 1, 0]].concat();
        let mut bare = Vec::new();
        record::encode_txn(&mut bare, tid, as_writes(&[(3, b"k", Some(b"v"))]), false);
        let cases: Vec<(&str, Vec<u8>, u64)> = vec![
            ("a damaged first tag", bad_tag, 1),
            ("an inflated envelope length", inflated, 1),
            ("a torn envelope after the records", torn_tail, 1),
            ("a record outside an envelope", bare, 1),
            ("one record fewer than the manifest", good.clone(), 2),
            ("one record more than the manifest", good, 0),
            ("no records at all", Vec::new(), 1),
            (
                "an epoch marker",
                sealed(&|s| record::encode_epoch_marker(s, 9)),
                0,
            ),
            (
                "a delete",
                sealed(&|s| record::encode_txn(s, tid, as_writes(&[(3, b"k", None)]), false)),
                1,
            ),
            (
                "two writes in one block",
                sealed(&|s| {
                    let writes: [(TableId, &[u8], Option<&[u8]>); 2] =
                        [(3, b"k", Some(b"v")), (3, b"j", Some(b"w"))];
                    record::encode_txn(s, tid, as_writes(&writes), false)
                }),
                1,
            ),
        ];
        for (what, slice, records) in cases {
            let err = read_all(&slice, records).expect_err(what);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
        }
    }
}
