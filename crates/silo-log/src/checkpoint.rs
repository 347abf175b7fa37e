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
//! log's [`StreamDecoder`], which verifies each envelope's CRC-32 before it
//! parses anything inside.
//!
//! Unlike a log stream, a slice is **strict**. It was fsynced before its
//! manifest was written, so it is either whole or damaged; it has no torn
//! tail to tolerate. [`verify_checkpoint`] rejects a slice with
//! `io::ErrorKind::InvalidData` when:
//!
//! * the decoder returns an error (a failed CRC, a bad tag);
//! * the decoder stops short of the slice's byte count in the manifest. It
//!   reads a torn final envelope as a clean end of stream, and in a slice
//!   that can only be damage, such as an inflated length field;
//! * the number of decoded records differs from the manifest's count;
//! * it holds any block other than a single-write transaction block with a
//!   value, such as an epoch marker or a delete.
//!
//! Recovery then falls back to the previous complete checkpoint rather than
//! load silently corrupt state.
//!
//! # Protocol
//!
//! 1. Pick the current global snapshot epoch `ce` and walk every table on
//!    `writers` threads via [`silo_core::SnapshotTxn::scan_versions_into`] —
//!    a consistent cut that runs concurrently with commits and never blocks
//!    them.
//! 2. fsync the slices, wait until the durable epoch reaches `ce`, then write
//!    `MANIFEST` (via a temp file + rename). Waiting first guarantees that
//!    any crash after the manifest exists recovers a durable horizon `≥ ce`.
//! 3. Ask the logger to truncate: segments whose records all have epochs
//!    `≤ ce` are redundant — the checkpoint covers them — and are deleted.
//! 4. Delete older checkpoints.

use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use silo_core::{CommitWrite, Database, TableId, Tid, Worker};

use crate::fault::{FaultPlan, FaultSite, InjectedCrash};
use crate::record::{self, BlockRef, DecodeError, StreamDecoder};
use crate::{lock, SiloLogger};

/// Name of the per-checkpoint completeness marker / metadata file.
const MANIFEST: &str = "MANIFEST";
/// First line of every manifest: the one checkpoint format.
const MANIFEST_HEADER: &str = "silo-checkpoint v3";
/// Subdirectory of the durability root holding checkpoints.
const CHECKPOINT_DIR: &str = "checkpoints";
/// Target payload size of one sealed envelope (closed at record boundaries).
const SLICE_FRAME: usize = 64 * 1024;

/// An `io::Error` carrying an injected checkpoint crash, so `run_once` can
/// abort *without cleanup* — simulating `kill -9` at a protocol-critical
/// instant.
fn injected_crash(site: FaultSite) -> std::io::Error {
    std::io::Error::other(InjectedCrash(site))
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
    /// Index keys scanned per chunk while walking a table (bounds memory and
    /// the epoch-pin granularity of the walk).
    pub chunk: usize,
    /// How long to wait for the checkpoint epoch to become durable before
    /// abandoning the checkpoint.
    pub durable_timeout: Duration,
    /// Rate limit for the table walk, in serialized bytes per second summed
    /// across all writer threads (0 = unthrottled). On machines where the
    /// walk competes with workers for CPU, pacing keeps the checkpoint from
    /// starving commit throughput — at the cost of a longer walk, so budget
    /// it well above `database size / checkpoint interval`.
    pub max_walk_bytes_per_sec: u64,
    /// Fault-injection plan scheduling crashes at the checkpointer's
    /// protocol-critical points; `None` (the default) costs nothing.
    pub fault: Option<Arc<FaultPlan>>,
}

impl CheckpointConfig {
    /// A configuration rooted at `root` with defaults suitable for
    /// production-ish runs.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            root: root.into(),
            interval: Duration::from_secs(10),
            writers: 2,
            chunk: 1024,
            durable_timeout: Duration::from_secs(30),
            max_walk_bytes_per_sec: 0,
            fault: None,
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

#[derive(Default)]
struct StatCells {
    completed: AtomicU64,
    skipped: AtomicU64,
    failed: AtomicU64,
    last_epoch: AtomicU64,
    last_records: AtomicU64,
    last_bytes: AtomicU64,
    last_micros: AtomicU64,
    total_bytes: AtomicU64,
}

struct CheckpointerShared {
    config: CheckpointConfig,
    db: Arc<Database>,
    logger: Arc<SiloLogger>,
    stats: StatCells,
    /// Serializes checkpoint runs (the periodic thread vs. `run_now`).
    run_state: StdMutex<RunState>,
    stop: AtomicBool,
    stop_cv: Condvar,
    /// Paired with `stop_cv` for the interval sleep.
    stop_mutex: StdMutex<()>,
}

/// What one checkpoint attempt hands to the next.
struct RunState {
    /// Epoch of the last complete checkpoint.
    last_epoch: u64,
    /// The worker that pins the snapshot for a whole walk, and one worker per
    /// slice writer. Registered once and quiescent between attempts: worker
    /// ids are never reused, so registering per attempt would exhaust
    /// [`crate::MAX_WORKERS`] after a few hundred checkpoints.
    pin_worker: Worker,
    walkers: Vec<Worker>,
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
        let run_state = RunState {
            last_epoch: 0,
            pin_worker: db.register_worker(),
            walkers: (0..config.writers.max(1))
                .map(|_| db.register_worker())
                .collect(),
        };
        let shared = Arc::new(CheckpointerShared {
            config,
            db,
            logger,
            stats: StatCells::default(),
            run_state: StdMutex::new(run_state),
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
                        thread_shared.stats.failed.fetch_add(1, Ordering::Relaxed);
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
        let s = &self.shared.stats;
        CheckpointStats {
            completed: s.completed.load(Ordering::Relaxed),
            skipped: s.skipped.load(Ordering::Relaxed),
            failed: s.failed.load(Ordering::Relaxed),
            last_epoch: s.last_epoch.load(Ordering::Relaxed),
            last_records: s.last_records.load(Ordering::Relaxed),
            last_bytes: s.last_bytes.load(Ordering::Relaxed),
            last_micros: s.last_micros.load(Ordering::Relaxed),
            total_bytes: s.total_bytes.load(Ordering::Relaxed),
        }
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
    let mut state = lock(&shared.run_state);
    let walked = walk(shared, &mut state);
    // However the walk ended, none of the long-lived workers may stay inside
    // an epoch: that would hold back reclamation, the epoch advance, and the
    // durable epoch the next step waits for.
    state.pin_worker.quiesce();
    for walker in &state.walkers {
        walker.quiesce();
    }
    match walked? {
        Some(walk) => publish(shared, &mut state.last_epoch, walk),
        None => Ok(None),
    }
}

/// Step 1: writes and syncs the slices of a consistent snapshot. `None` means
/// the snapshot epoch has not moved since the last complete checkpoint.
fn walk(shared: &CheckpointerShared, state: &mut RunState) -> std::io::Result<Option<Walk>> {
    let RunState {
        last_epoch,
        pin_worker,
        walkers,
    } = state;
    // Pin the chosen snapshot for the whole checkpoint: this worker's `se_w`
    // bounds the snapshot reclamation epoch, so no version the `ce` snapshot
    // can reach is freed while the writers re-pin table by table (each
    // writer's own pin has per-table gaps — the txn boundary inside
    // `begin_snapshot_at`).
    let pin = pin_worker.begin_snapshot();
    let ce = pin.snapshot_epoch();
    if ce == 0 || ce <= *last_epoch {
        shared.stats.skipped.fetch_add(1, Ordering::Relaxed);
        return Ok(None);
    }
    let started = Instant::now();
    let root = &shared.config.root;
    let dir = checkpoint_dir(root, ce);
    // A leftover directory for this epoch can only be an earlier incomplete
    // attempt (complete ones bump `last_epoch`).
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;

    // Walk every table in parallel slices: a shared work queue of table ids,
    // one slice file per writer thread.
    let tables = shared.db.table_ids();
    let writers = walkers.len().min(tables.len().max(1));
    let next_table = AtomicUsize::new(0);
    let chunk = shared.config.chunk;
    // One pacer shared by every writer: the configured rate is a global
    // budget for the whole walk, not per-thread.
    let pacer = match shared.config.max_walk_bytes_per_sec {
        0 => None,
        rate => Some(silo_core::WalkPacer::new(rate)),
    };
    let mut slices: Vec<(u64, u64)> = Vec::with_capacity(writers); // (bytes, records)
    let results: Vec<std::io::Result<(u64, u64)>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(writers);
        for (w, worker) in walkers.iter_mut().take(writers).enumerate() {
            let tables = &tables;
            let next_table = &next_table;
            let pacer = pacer.as_ref();
            let path = slice_path(&dir, w);
            let fault = shared.config.fault.as_ref();
            handles.push(scope.spawn(move || -> std::io::Result<(u64, u64)> {
                let file = std::fs::File::create(&path)?;
                let mut slice = SliceWriter::new(BufWriter::new(file));
                loop {
                    let i = next_table.fetch_add(1, Ordering::Relaxed);
                    let Some(&table) = tables.get(i) else { break };
                    if let Some(plan) = fault {
                        if plan.crash_at(FaultSite::CkptSlice) {
                            return Err(injected_crash(FaultSite::CkptSlice));
                        }
                    }
                    let mut snap = worker.begin_snapshot_at(ce);
                    let mut io_err: Option<std::io::Error> = None;
                    snap.scan_versions_paced(table, chunk, pacer, |key, tid, value| {
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
                    let _ = std::fs::remove_dir_all(&dir);
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
    let root = &shared.config.root;
    // The checkpoint claims every transaction with epoch ≤ ce; only publish
    // it once the log guarantees that claim survives a crash.
    if !shared
        .logger
        .wait_for_durable(ce, shared.config.durable_timeout)
        .is_durable()
    {
        let _ = std::fs::remove_dir_all(&dir);
        shared.stats.failed.fetch_add(1, Ordering::Relaxed);
        return Ok(None);
    }

    if let Some(plan) = &shared.config.fault {
        if plan.crash_at(FaultSite::CkptBeforeManifest) {
            return Err(injected_crash(FaultSite::CkptBeforeManifest));
        }
    }

    // Manifest written via temp file + rename: its presence is the atomic
    // "checkpoint complete" bit.
    let mut manifest = format!("{MANIFEST_HEADER}\n");
    manifest.push_str(&format!("epoch {ce}\n"));
    manifest.push_str(&format!("slices {}\n", slices.len()));
    for (i, (bytes, records)) in slices.iter().enumerate() {
        manifest.push_str(&format!("slice {i} {bytes} {records}\n"));
    }
    manifest.push_str("end\n");
    let tmp = dir.join("MANIFEST.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(manifest.as_bytes())?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, dir.join(MANIFEST))?;
    if let Some(plan) = &shared.config.fault {
        if plan.crash_at(FaultSite::CkptAfterManifest) {
            return Err(injected_crash(FaultSite::CkptAfterManifest));
        }
    }
    if let Ok(d) = std::fs::File::open(&dir) {
        let _ = d.sync_all();
    }

    if let Some(plan) = &shared.config.fault {
        if plan.crash_at(FaultSite::CkptBeforeTruncate) {
            return Err(injected_crash(FaultSite::CkptBeforeTruncate));
        }
    }

    // The checkpoint is durable: logs covering epochs ≤ ce are redundant.
    shared.logger.truncate_logs(ce);

    // Older checkpoints are superseded — but keep the newest complete
    // predecessor as a fallback should this checkpoint's slices rot on disk
    // before the next one lands. Everything older than that (and any stale
    // incomplete attempt) goes.
    if let Ok(entries) = std::fs::read_dir(checkpoints_root(root)) {
        let mut older: Vec<(u64, PathBuf)> = entries
            .flatten()
            .filter_map(|entry| {
                let name = entry.file_name();
                let epoch = parse_checkpoint_dir(name.to_str()?)?;
                (epoch < ce).then(|| (epoch, entry.path()))
            })
            .collect();
        older.sort_by_key(|(epoch, _)| *epoch);
        let fallback = older
            .iter()
            .rev()
            .find(|(_, path)| read_manifest(path).is_some())
            .map(|(epoch, _)| *epoch);
        for (epoch, path) in older {
            if Some(epoch) != fallback {
                let _ = std::fs::remove_dir_all(path);
            }
        }
    }

    let bytes: u64 = slices.iter().map(|(b, _)| *b).sum();
    let records: u64 = slices.iter().map(|(_, r)| *r).sum();
    let stats = &shared.stats;
    stats.completed.fetch_add(1, Ordering::Relaxed);
    stats.last_epoch.store(ce, Ordering::Relaxed);
    stats.last_records.store(records, Ordering::Relaxed);
    stats.last_bytes.store(bytes, Ordering::Relaxed);
    stats
        .last_micros
        .store(started.elapsed().as_micros() as u64, Ordering::Relaxed);
    stats.total_bytes.fetch_add(bytes, Ordering::Relaxed);
    *last_epoch = ce;
    Ok(Some(ce))
}

// ---------------------------------------------------------------------------
// Reading checkpoints back (recovery side)
// ---------------------------------------------------------------------------

/// A complete checkpoint found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// The checkpoint epoch: every transaction with epoch `≤` this value is
    /// reflected in the checkpoint.
    pub epoch: u64,
    /// The checkpoint directory.
    pub dir: PathBuf,
    /// Per-slice `(path, bytes, records)` as recorded by the manifest.
    pub slices: Vec<(PathBuf, u64, u64)>,
}

impl CheckpointInfo {
    /// Total bytes across all slices.
    pub fn bytes(&self) -> u64 {
        self.slices.iter().map(|(_, b, _)| *b).sum()
    }

    /// Total records across all slices.
    pub fn records(&self) -> u64 {
        self.slices.iter().map(|(_, _, r)| *r).sum()
    }
}

fn read_manifest(dir: &Path) -> Option<CheckpointInfo> {
    let text = std::fs::read_to_string(dir.join(MANIFEST)).ok()?;
    let mut lines = text.lines();
    if lines.next()? != MANIFEST_HEADER {
        return None;
    }
    let epoch: u64 = lines.next()?.strip_prefix("epoch ")?.parse().ok()?;
    let count: usize = lines.next()?.strip_prefix("slices ")?.parse().ok()?;
    let mut slices = Vec::with_capacity(count);
    for line in lines {
        if line == "end" {
            if slices.len() != count {
                return None;
            }
            // Validate the slice files against the manifest: a slice that is
            // missing or short means the checkpoint must not be trusted.
            for (path, bytes, _) in &slices {
                let len = std::fs::metadata(path).ok()?.len();
                if len != *bytes {
                    return None;
                }
            }
            return Some(CheckpointInfo {
                epoch,
                dir: dir.to_path_buf(),
                slices,
            });
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

/// Every *complete* checkpoint (manifest present, slice lengths matching)
/// under the durability root `root`, newest first. Recovery walks this list
/// in order, falling back past any checkpoint whose slices fail
/// [`verify_checkpoint`].
pub fn complete_checkpoints(root: &Path) -> Vec<CheckpointInfo> {
    let Ok(entries) = std::fs::read_dir(checkpoints_root(root)) else {
        return Vec::new();
    };
    let mut found: Vec<CheckpointInfo> = entries
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name();
            parse_checkpoint_dir(name.to_str()?)?;
            read_manifest(&entry.path())
        })
        .collect();
    found.sort_by_key(|info| std::cmp::Reverse(info.epoch));
    found
}

/// Finds the most recent *complete* checkpoint under the durability root
/// `root` (the directory the logs are written to), if any.
pub fn latest_checkpoint(root: &Path) -> Option<CheckpointInfo> {
    complete_checkpoints(root).into_iter().next()
}

/// Reads every slice of `info` end to end without applying anything, holding
/// each to the strict rules of the module docs. A damaged slice surfaces as
/// an `InvalidData` error, letting recovery report it and fall back to an
/// older checkpoint instead of loading silently-corrupted state.
pub fn verify_checkpoint(info: &CheckpointInfo) -> std::io::Result<()> {
    for (path, bytes, records) in &info.slices {
        let file = std::fs::File::open(path)?;
        read_slice(file, *bytes, *records, |_, _, _, _| {
            Ok::<(), std::io::Error>(())
        })?;
    }
    Ok(())
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
        let more = decoder.next_envelope_with(|block| {
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

/// Loads a checkpoint into `db` with up to `threads` concurrent slice
/// loaders. The database's tables must already be recreated (with the same
/// ids as before the crash). Returns `(records, bytes)` loaded.
pub(crate) fn load_checkpoint(
    db: &Arc<Database>,
    info: &CheckpointInfo,
    threads: usize,
) -> Result<(u64, u64), crate::RecoveryError> {
    let threads = threads.clamp(1, info.slices.len().max(1));
    let next_slice = AtomicUsize::new(0);
    let results: Vec<Result<(u64, u64), crate::RecoveryError>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let next_slice = &next_slice;
            let info = &info;
            handles.push(
                scope.spawn(move || -> Result<(u64, u64), crate::RecoveryError> {
                    let mut records = 0u64;
                    let mut bytes = 0u64;
                    loop {
                        let i = next_slice.fetch_add(1, Ordering::Relaxed);
                        let Some(&(ref path, slice_bytes, slice_records)) = info.slices.get(i)
                        else {
                            return Ok((records, bytes));
                        };
                        let file = std::fs::File::open(path)?;
                        read_slice(
                            file,
                            slice_bytes,
                            slice_records,
                            |tid, table, key, value| {
                                let table = crate::recovery::recovery_table(db, table)?;
                                // SAFETY: recovery-mode exclusivity — no transactions
                                // run during recovery, and checkpoint slices never
                                // repeat a key (each key is scanned exactly once), so
                                // no two loaders touch the same key.
                                unsafe {
                                    silo_core::bulk_apply(&table, key, tid, Some(value));
                                }
                                Ok::<(), crate::RecoveryError>(())
                            },
                        )?;
                        records += slice_records;
                        bytes += slice_bytes;
                    }
                }),
            );
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("checkpoint loader panicked"))
            .collect()
    });
    let mut records = 0;
    let mut bytes = 0;
    for result in results {
        let (r, b) = result?;
        records += r;
        bytes += b;
    }
    Ok((records, bytes))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tests::as_writes;

    /// A slice holding `records`, written by the checkpointer's own encoder.
    pub(crate) fn slice_bytes(records: &[(TableId, &[u8], Tid, &[u8])]) -> Vec<u8> {
        let mut slice = SliceWriter::new(Vec::new());
        for &(table, key, tid, value) in records {
            slice.push(table, key, tid, value).unwrap();
        }
        slice.finish().unwrap().0
    }

    /// Writes a one-slice checkpoint at `epoch` under the durability root
    /// `root`, whose manifest claims `slice`'s length and `records` records.
    pub(crate) fn write_one_slice_checkpoint(root: &Path, epoch: u64, slice: &[u8], records: u64) {
        let dir = checkpoint_dir(root, epoch);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(slice_path(&dir, 0), slice).unwrap();
        std::fs::write(
            dir.join(MANIFEST),
            format!(
                "{MANIFEST_HEADER}\nepoch {epoch}\nslices 1\nslice 0 {} {records}\nend\n",
                slice.len()
            ),
        )
        .unwrap();
    }

    #[test]
    fn manifest_roundtrip_and_incomplete_detection() {
        let root = std::env::temp_dir().join(format!("silo-ckpt-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = checkpoint_dir(&root, 42);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(slice_path(&dir, 0), b"0123456789").unwrap();
        assert!(
            latest_checkpoint(&root).is_none(),
            "no manifest means no checkpoint"
        );
        std::fs::write(
            dir.join(MANIFEST),
            "silo-checkpoint v3\nepoch 42\nslices 1\nslice 0 10 3\nend\n",
        )
        .unwrap();
        let info = latest_checkpoint(&root).expect("complete checkpoint");
        assert_eq!(info.epoch, 42);
        assert_eq!(info.bytes(), 10);
        assert_eq!(info.records(), 3);

        // A slice shorter than the manifest claims invalidates the checkpoint.
        std::fs::write(slice_path(&dir, 0), b"0123").unwrap();
        assert!(latest_checkpoint(&root).is_none());

        // So does a manifest of any other format version.
        std::fs::write(slice_path(&dir, 0), b"0123456789").unwrap();
        std::fs::write(
            dir.join(MANIFEST),
            "silo-checkpoint v2\nepoch 42\nslices 1\nslice 0 10 3\nend\n",
        )
        .unwrap();
        assert!(latest_checkpoint(&root).is_none());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn latest_checkpoint_picks_max_epoch() {
        let root = std::env::temp_dir().join(format!("silo-ckpt-latest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for epoch in [7u64, 19, 12] {
            let dir = checkpoint_dir(&root, epoch);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(
                dir.join(MANIFEST),
                format!("{MANIFEST_HEADER}\nepoch {epoch}\nslices 0\nend\n"),
            )
            .unwrap();
        }
        assert_eq!(latest_checkpoint(&root).unwrap().epoch, 19);
        std::fs::remove_dir_all(&root).unwrap();
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

    #[test]
    fn verify_checkpoint_flags_a_corrupt_slice() {
        let root = std::env::temp_dir().join(format!("silo-ckpt-verify-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut slice = slice_bytes(&[(1, b"key", Tid::from_raw(11), b"value")]);
        write_one_slice_checkpoint(&root, 5, &slice, 1);
        let info = latest_checkpoint(&root).expect("complete checkpoint");
        verify_checkpoint(&info).expect("intact slices verify");

        // Flip one payload bit (keeping the length, so the manifest check
        // still passes) — verification must now fail.
        let last = slice.len() - 1;
        slice[last] ^= 0x01;
        std::fs::write(slice_path(&info.dir, 0), &slice).unwrap();
        let err = verify_checkpoint(&info).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn complete_checkpoints_lists_newest_first() {
        let root = std::env::temp_dir().join(format!("silo-ckpt-complete-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for epoch in [4u64, 9, 6] {
            let dir = checkpoint_dir(&root, epoch);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(
                dir.join(MANIFEST),
                format!("{MANIFEST_HEADER}\nepoch {epoch}\nslices 0\nend\n"),
            )
            .unwrap();
        }
        // An incomplete attempt (no manifest) is not listed.
        std::fs::create_dir_all(checkpoint_dir(&root, 11)).unwrap();
        let epochs: Vec<u64> = complete_checkpoints(&root)
            .iter()
            .map(|c| c.epoch)
            .collect();
        assert_eq!(epochs, vec![9, 6, 4]);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
