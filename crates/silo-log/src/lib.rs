//! # silo-log — epoch-based durability for silo-rs (paper §4.10)
//!
//! Silo makes transactions durable with record-level redo logging, organized
//! around epochs so that a consistent *prefix* of the serial order can be
//! recovered:
//!
//! * every **worker** serializes its committed transactions into a local
//!   memory buffer and publishes the buffer (plus its last committed TID
//!   `ctid_w`) to its **logger** when the buffer fills or a new epoch begins.
//!   Publishing swaps in a fresh buffer from a recycled **pool**, so the hot
//!   path never allocates: loggers return drained buffers to the pool after
//!   flushing them, exactly as the paper describes;
//! * a small number of **logger threads**, each responsible for a disjoint
//!   subset of the workers, coalesce the published buffers into a single
//!   append + sync per group-commit round, compute a local durable epoch
//!   `d_l`, persist it, and publish it. Each round reads the floor
//!   `min(E, min e_w)`, steals every buffer below `floor` into the round,
//!   and sets `d_l = floor − 1` (see `logger_loop`); the steal is also how
//!   the partial buffer of an idle or dropped worker reaches the log.
//!   Loggers are event-driven: a round starts when a worker publishes a
//!   buffer or when the global epoch advances (an [`AdvanceListener`]), so a
//!   commit is durable one epoch boundary and one sync after it happened;
//! * the global **durable epoch** `D = min d_l`. Transactions with epochs
//!   `≤ D` are durable, and results are released to clients only then —
//!   epoch-granularity group commit. Advancement is signalled through a
//!   condvar, so [`SiloLogger::wait_for_durable`] parks instead of polling.
//!
//! Recovery ([`recover_directory`]) restores the latest complete checkpoint,
//! reads the surviving log segments, finds `D`, and replays exactly the
//! transactions the checkpoint does not cover with `epoch(tid) ≤ D`, applying
//! log records for the same key in TID order. Nothing newer is replayed: the
//! serial order within an epoch is not recoverable, so replaying a partial
//! epoch could produce an inconsistent state.
//!
//! There is one on-disk format, CRC-sealed rounds of record blocks
//! ([`record`]), and one decoder reads it back. Log segments
//! `silo-log-<logger>-seg<seq>.bin` hold the group-commit rounds; checkpoint
//! slices `checkpoints/ckpt-<epoch>/slice-<i>.bin` hold one single-write
//! transaction block per live record, and each checkpoint's `MANIFEST`
//! records every slice's byte and record count ([`checkpoint`]).
//!
//! The crate also implements the persistence-side knobs of the paper's factor
//! analysis (Figure 11): `SmallRecs` (8-byte log records), `FullRecs`
//! (default) and `Compress` (LZ77-style compression of log buffers — applied
//! by the *logger* threads, off the workers' commit path). Loggers only ever
//! write segment files; the paper's `Silo+tmpfs` configuration is the same
//! logger with fsync off ([`LogConfig::fsync`]).

#![warn(missing_docs)]
// Raw key/value byte tuples are part of this crate's vocabulary; aliasing
// them away would obscure more than it clarifies.
#![allow(clippy::type_complexity)]

pub mod checkpoint;
pub mod compress;
pub mod fault;
mod fs;
pub mod record;
mod recovery;
mod sink;

pub use checkpoint::{CheckpointConfig, CheckpointStats, Checkpointer};
pub use fault::{FaultKind, FaultPlan, FaultSite};
pub use recovery::{recover_directory, RecoveryError, RecoveryOptions, RecoveryReport};
pub use sink::{SinkError, SinkErrorKind};

use fs::{Fs, RealFs};
use sink::FileSink;

use std::path::PathBuf;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use silo_core::{
    AdvanceListener, CommitHook, CommitWrites, Database, DurabilityHealth, Tid, MAX_WORKERS,
};

use record::{encode_compressed_into, encode_epoch_marker, encode_txn};

/// Locks a std mutex, recovering from poison (a panicking logger thread must
/// not take the workers down with it).
pub(crate) fn lock<T>(m: &StdMutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the workers put into their log buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogMode {
    /// Full redo records: TID + table/key/value for every write (default).
    FullRecords,
    /// Only the 8-byte TID (`+SmallRecs`): an upper bound on logging
    /// performance (Figure 11).
    SmallRecords,
}

/// Durability configuration.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`LogConfig::to_directory`] and refine it with the builder-style `with_*`
/// methods, so new knobs are never a breaking change for downstream code:
///
/// ```
/// use silo_log::LogConfig;
///
/// let config = LogConfig::to_directory("/tmp/silo-log", 2)
///     .with_fsync(true)
///     .with_max_durable_lag_epochs(32);
/// assert!(config.fsync);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct LogConfig {
    /// The directory of the log: one stream of segment files per logger
    /// (`silo-log-<logger>-seg<seq>.bin`), next to the checkpoints.
    pub dir: PathBuf,
    /// Number of logger threads (the paper uses 4).
    pub num_loggers: usize,
    /// Record contents ([`LogMode`]).
    pub mode: LogMode,
    /// Compress published buffers before they hit the sink (`+Compress`).
    /// Compression runs on the logger threads, not the workers' commit path.
    pub compress: bool,
    /// Call `fsync` after each logger write batch. Off, the log is the
    /// paper's `Silo+tmpfs` configuration: the same files, with no device
    /// wait.
    pub fsync: bool,
    /// Worker buffer fill level that triggers a publish to the logger.
    pub buffer_capacity: usize,
    /// Buffers pre-allocated into the recycled pool at startup. Size this at
    /// least to the expected number of buffers in flight (workers plus queue
    /// depth) so that steady-state publishes never hit the allocator.
    pub pool_buffers: usize,
    /// Rotate a logger's file into a fresh segment once it exceeds this many
    /// bytes. Smaller segments let checkpoints truncate the log at a finer
    /// grain; each rotation costs one fsync of the log directory.
    pub segment_bytes: u64,
    /// Durable-epoch lag (global epoch − durable epoch) beyond which
    /// [`SiloLogger::durability_health`] reports
    /// [`DurabilityHealth::Degraded`] — the backpressure watermark a stalled
    /// disk trips.
    pub max_durable_lag_epochs: u64,
    /// Fault-injection plan for tests; `None` (the default) costs one
    /// `Option` check per sink call.
    pub fault: Option<Arc<FaultPlan>>,
}

impl LogConfig {
    /// Logs to segment files under `dir` with the given number of loggers.
    pub fn to_directory(dir: impl Into<PathBuf>, num_loggers: usize) -> Self {
        LogConfig {
            dir: dir.into(),
            num_loggers: num_loggers.max(1),
            mode: LogMode::FullRecords,
            compress: false,
            fsync: false,
            buffer_capacity: 64 * 1024,
            pool_buffers: 16,
            segment_bytes: 64 << 20,
            max_durable_lag_epochs: 128,
            fault: None,
        }
    }

    /// Sets the record contents ([`LogMode`]).
    pub fn with_mode(mut self, mode: LogMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enables or disables buffer compression (`+Compress`).
    pub fn with_compress(mut self, compress: bool) -> Self {
        self.compress = compress;
        self
    }

    /// Enables or disables `fsync` after each logger write batch.
    pub fn with_fsync(mut self, fsync: bool) -> Self {
        self.fsync = fsync;
        self
    }

    /// Sets the worker buffer fill level that triggers a publish.
    pub fn with_buffer_capacity(mut self, bytes: usize) -> Self {
        self.buffer_capacity = bytes;
        self
    }

    /// Sets the number of pre-allocated pool buffers.
    pub fn with_pool_buffers(mut self, buffers: usize) -> Self {
        self.pool_buffers = buffers;
        self
    }

    /// Sets the segment rotation threshold.
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// Sets the durable-epoch lag watermark for `Degraded` health.
    pub fn with_max_durable_lag_epochs(mut self, epochs: u64) -> Self {
        self.max_durable_lag_epochs = epochs;
        self
    }

    /// Installs a fault-injection plan (tests).
    pub fn with_fault(mut self, fault: Arc<FaultPlan>) -> Self {
        self.fault = Some(fault);
        self
    }
}

/// The outcome of [`SiloLogger::wait_for_durable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurableWait {
    /// The requested epoch became durable.
    Durable,
    /// The timeout elapsed before the epoch became durable. Durability may
    /// still be making (slow) progress.
    Timeout,
    /// A logger thread failed permanently (exhausted its retry budget or hit
    /// an unrecoverable sink error): its local durable epoch is frozen, so
    /// the requested epoch can never become durable.
    Failed,
}

impl DurableWait {
    /// Whether the epoch became durable.
    pub fn is_durable(self) -> bool {
        self == DurableWait::Durable
    }
}

/// The logging subsystem's counters (see [`SiloLogger::stats`]). All values
/// are cumulative since the logger was created. The live counters are this
/// struct under one lock, and counters one event moves together move under
/// one hold, so a snapshot never shows half an event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoggerStats {
    /// Buffers handed from workers to logger threads (including steals).
    pub buffers_published: u64,
    /// Buffers a logger pulled out of an idle or dropped worker whose partial
    /// buffer was holding the durable epoch back.
    pub steal_publishes: u64,
    /// Publishes that drew their replacement buffer from the recycled pool.
    pub pool_hits: u64,
    /// Publishes that had to allocate a replacement buffer (pool empty).
    pub pool_misses: u64,
    /// Group-commit rounds that reached the sink (`append` + `sync` pairs;
    /// rotation stamps are not rounds).
    pub sync_calls: u64,
    /// Raw bytes workers published to their loggers.
    pub bytes_published: u64,
    /// Bytes actually appended to the sinks (post-compression, including
    /// epoch markers and rotation stamps).
    pub bytes_written: u64,
    /// Log segments closed by rotation (size threshold or checkpoint
    /// truncation).
    pub segments_rotated: u64,
    /// Log segments deleted because a durable checkpoint made them redundant.
    pub segments_deleted: u64,
    /// Bytes reclaimed by deleting redundant log segments.
    pub bytes_truncated: u64,
    /// Sink operations retried after a transient error.
    pub retries: u64,
    /// Sink files reopened after a *failed sync* before retrying ("fsyncgate"
    /// recovery): a failed fsync may mark dirty pages clean, so re-syncing
    /// the same descriptor could falsely succeed — the logger reopens the
    /// segment, discards the unsynced tail, and rewrites the round instead.
    pub sync_reopens: u64,
    /// Total microseconds logger threads spent backing off before retries —
    /// the durability stall time a flaky or overloaded device caused.
    pub backoff_micros: u64,
    /// Logger threads that exhausted their retry budget (or hit a permanent
    /// error) and froze their durable epoch. Non-zero means durability is
    /// degraded; the process keeps running.
    pub logger_failures: u64,
    /// Segment deletions that failed during truncation (retried on the next
    /// round).
    pub truncate_failures: u64,
    /// CRC-32C-sealed envelopes written to the sinks (one per group-commit
    /// round or rotation stamp). A round that failed to reach the sink is not
    /// counted.
    pub checksum_blocks: u64,
    /// Faults the configured [`FaultPlan`] injected (0 without a plan).
    pub faults_injected: u64,
    /// Nanoseconds logger threads spent sealing the envelopes counted in
    /// `checksum_blocks` (computing their CRC-32C).
    pub seal_ns: u64,
    /// Nanoseconds logger threads spent appending those envelopes to the
    /// sinks, transient-error retries included.
    pub append_ns: u64,
    /// Nanoseconds logger threads spent syncing them, including a reopen and
    /// re-append after a failed sync.
    pub sync_ns: u64,
    /// Rounds that raised a logger's local durable epoch `d_l`.
    pub durable_advances: u64,
    /// Summed over `durable_advances`: nanoseconds from the latest global
    /// epoch advance to the round's `d_l` store.
    pub durable_advance_ns: u64,
}

impl std::fmt::Display for LoggerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} buffers ({} stolen), pool {}/{} hits/misses, {} syncs, {} B published, {} B written, {} rotations, {} segments / {} B truncated, {} retries ({} µs backoff, {} sync reopens), {} failed loggers, {} checksummed rounds, {} faults injected, seal/append/sync {}/{}/{} µs, {} d_l advances ({} µs mean after the epoch advance)",
            self.buffers_published,
            self.steal_publishes,
            self.pool_hits,
            self.pool_misses,
            self.sync_calls,
            self.bytes_published,
            self.bytes_written,
            self.segments_rotated,
            self.segments_deleted,
            self.bytes_truncated,
            self.retries,
            self.backoff_micros,
            self.sync_reopens,
            self.logger_failures,
            self.checksum_blocks,
            self.faults_injected,
            self.seal_ns / 1_000,
            self.append_ns / 1_000,
            self.sync_ns / 1_000,
            self.durable_advances,
            self.durable_advance_ns / self.durable_advances.max(1) / 1_000,
        )
    }
}

/// The recycled buffer pool (paper §4.10: "it recycles [the buffers] to
/// workers" after flushing). Buffers are allocated with twice the publish
/// watermark so that the record whose append crosses the watermark never
/// forces a re-grow — once a buffer has cycled, filling it is allocation-free.
struct BufferPool {
    free: Mutex<Vec<Vec<u8>>>,
    /// Capacity new buffers are created with (2× the publish watermark).
    alloc_capacity: usize,
    /// Retention cap: buffers beyond this are dropped rather than pooled,
    /// bounding pool memory at roughly `retain_cap * alloc_capacity` bytes.
    retain_cap: usize,
}

impl BufferPool {
    fn new(config: &LogConfig) -> Self {
        let alloc_capacity = config.buffer_capacity.saturating_mul(2).max(64);
        let seed = config.pool_buffers;
        BufferPool {
            free: Mutex::new(
                (0..seed)
                    .map(|_| Vec::with_capacity(alloc_capacity))
                    .collect(),
            ),
            alloc_capacity,
            retain_cap: seed.max(16) * 4,
        }
    }

    /// Takes a recycled buffer, or allocates one when the pool is dry.
    fn take(&self, stats: &mut LoggerStats) -> Vec<u8> {
        match self.free.lock().pop() {
            Some(buf) => {
                stats.pool_hits += 1;
                buf
            }
            None => {
                stats.pool_misses += 1;
                Vec::with_capacity(self.alloc_capacity)
            }
        }
    }

    /// Returns a drained buffer to the pool (capacity retained).
    fn put(&self, mut buf: Vec<u8>) {
        // A buffer that out-grew the allocation size (a single transaction
        // bigger than the headroom) is dropped rather than pooled: such
        // workloads re-grow on every fill anyway, and retaining the buffer
        // would break the pool's documented memory bound.
        if buf.capacity() > self.alloc_capacity {
            return;
        }
        buf.clear();
        let mut free = self.free.lock();
        if free.len() < self.retain_cap {
            free.push(buf);
        }
    }
}

/// A logger thread's mailbox: workers push published buffers (tagged with
/// the single epoch all records in the buffer share, which the sink uses to
/// bound each segment's contents) and wake the logger through the
/// condvar; the logger swaps the whole queue out in one lock acquisition.
/// Both sides reuse their `Vec`s, so steady-state traffic allocates nothing
/// (unlike a linked-list channel, whose sends allocate a node on the worker
/// thread).
struct Inbox {
    queue: StdMutex<Vec<(u64, Vec<u8>)>>,
    cv: Condvar,
    /// Set under the queue lock once the logger takes no more buffers: it
    /// stopped or failed. A publish checks it under the same lock, so nothing
    /// is queued after the logger's last drain. Durable waiters read it
    /// without the lock; they need no data it guards.
    closed: AtomicBool,
}

impl Inbox {
    fn new(depth_hint: usize) -> Self {
        Inbox {
            queue: StdMutex::new(Vec::with_capacity(depth_hint)),
            cv: Condvar::new(),
            closed: AtomicBool::new(false),
        }
    }

    /// Refuses every later publish and hands back what is still queued.
    fn close(&self) -> Vec<(u64, Vec<u8>)> {
        let mut queue = lock(&self.queue);
        self.closed.store(true, Ordering::Release);
        std::mem::take(&mut *queue)
    }
}

/// Per-worker logging state, indexed by worker id. It belongs to the id, not
/// to one worker: records a dropped worker left unpublished wait here for the
/// steal, or for the next worker given the id to publish them at its first
/// commit in a later epoch.
struct WorkerLogState {
    /// Serialized, not yet published log records (raw, even in `+Compress`
    /// mode — compression happens on the logger threads).
    buffer: Mutex<Vec<u8>>,
    /// Epoch of the records currently sitting *unpublished* in `buffer` (they
    /// all share one: a commit in a new epoch publishes the old buffer
    /// first), or zero when the buffer is empty. Stored under the buffer lock
    /// by every commit, so it is visible to anyone who later sees the worker
    /// quiesce or begin its next transaction. The padding keeps two workers'
    /// states off one cache line.
    pending_epoch: CachePadded<AtomicU64>,
}

impl WorkerLogState {
    fn new() -> Self {
        WorkerLogState {
            buffer: Mutex::new(Vec::new()),
            pending_epoch: CachePadded::new(AtomicU64::new(0)),
        }
    }
}

/// State shared between the commit hook (worker side) and the logger threads.
struct LoggerShared {
    config: LogConfig,
    workers: Vec<WorkerLogState>,
    inboxes: Vec<Inbox>,
    pool: BufferPool,
    /// The counters; `faults_injected` stays 0 here (the fault plan counts).
    stats: StdMutex<LoggerStats>,
    /// Per-logger local durable epochs `d_l`.
    durable_epochs: Vec<CachePadded<AtomicU64>>,
    /// Cached global durable epoch `D = min d_l`, guarded so waiters can park
    /// on the condvar instead of spin-sleeping.
    durable: StdMutex<u64>,
    durable_cv: Condvar,
    /// Told whenever `durable_cv` is (see [`SiloLogger::add_durable_listener`]).
    durable_listeners: Mutex<Vec<Weak<dyn AdvanceListener>>>,
    /// Latest checkpoint epoch a truncation was requested for (0 = never).
    /// Logger threads compare against their locally handled value and delete
    /// redundant segments when it moves.
    truncate_epoch: AtomicU64,
    stop: AtomicBool,
    /// The clock `advanced_at_ns` counts from.
    started: Instant,
    /// When the global epoch last advanced, in nanoseconds since `started`.
    advanced_at_ns: AtomicU64,
}

impl LoggerShared {
    /// Nanoseconds since the subsystem was created.
    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Flushes a worker's buffer to its logger: the full buffer is pushed
    /// into the logger's mailbox (tagged with `epoch`, the single epoch of
    /// every record it holds), waking it, and replaced by a recycled one. If
    /// the mailbox is closed the records are dropped instead: they were not
    /// durable, and nothing will drain it again.
    fn publish(&self, worker_id: usize, buffer: &mut Vec<u8>, epoch: u64) {
        if buffer.is_empty() {
            return;
        }
        let inbox = &self.inboxes[worker_id % self.inboxes.len()];
        let bytes = buffer.len() as u64;
        {
            let mut queue = lock(&inbox.queue);
            if inbox.closed.load(Ordering::Relaxed) {
                buffer.clear();
                return;
            }
            queue.push((epoch, std::mem::take(buffer)));
        }
        inbox.cv.notify_one();
        let mut stats = lock(&self.stats);
        *buffer = self.pool.take(&mut stats);
        stats.bytes_published += bytes;
        stats.buffers_published += 1;
    }

    /// Whether some logger takes no more buffers, so `D` can no longer reach
    /// an epoch it has not reached yet.
    fn any_closed(&self) -> bool {
        self.inboxes
            .iter()
            .any(|inbox| inbox.closed.load(Ordering::Acquire))
    }

    /// The global durable epoch `D = min d_l` from the per-logger atomics.
    fn durable_epoch(&self) -> u64 {
        self.durable_epochs
            .iter()
            .map(|d| d.load(Ordering::Acquire))
            .min()
            .unwrap_or(0)
    }

    /// Wakes everything that waits on the durable epoch: the condvar's
    /// waiters, under the `cached` guard so none can park between its check
    /// and its wait, then — with the guard released — the durable listeners.
    fn notify_durable(&self, cached: MutexGuard<'_, u64>) {
        self.durable_cv.notify_all();
        let durable = *cached;
        drop(cached);
        self.durable_listeners
            .lock()
            .retain(|listener| listener.upgrade().map(|l| l.epoch_advanced(durable)).is_some());
    }

    /// Starts a round on every logger. The mailbox lock is taken so the wake
    /// cannot land between a logger's wait check and its park.
    fn wake_loggers(&self) {
        for inbox in &self.inboxes {
            let _guard = lock(&inbox.queue);
            inbox.cv.notify_all();
        }
    }
}

/// Every advance of the global epoch starts a group-commit round: the epoch
/// that just closed can become durable now, and nothing else can make it so
/// sooner. Runs on the advancer thread.
impl AdvanceListener for LoggerShared {
    fn epoch_advanced(&self, _epoch: u64) {
        self.advanced_at_ns.store(self.now_ns(), Ordering::Relaxed);
        self.wake_loggers();
    }
}

/// The durability subsystem: implements [`CommitHook`] and owns the logger
/// threads.
///
/// Install it with [`SiloLogger::install`]; query [`SiloLogger::durable_epoch`]
/// to learn which transactions may be released to clients (those whose TID
/// epoch is `≤ D`).
pub struct SiloLogger {
    shared: Arc<LoggerShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// The database's epoch manager, for the durable-lag watermark.
    epochs: Arc<silo_core::EpochManager>,
    /// The file system the sinks write; a checkpointer spawned with this
    /// logger writes there too.
    pub(crate) fs: Arc<dyn Fs>,
}

impl std::fmt::Debug for SiloLogger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SiloLogger")
            .field("num_loggers", &self.shared.config.num_loggers)
            .field("durable_epoch", &self.durable_epoch())
            .finish_non_exhaustive()
    }
}

impl SiloLogger {
    /// Creates the logging subsystem and spawns its logger threads. Setup
    /// failures (log directory or first segment cannot be created, thread
    /// spawn fails) are returned as typed errors instead of panicking.
    pub fn new(
        config: LogConfig,
        epochs: Arc<silo_core::EpochManager>,
    ) -> Result<Arc<SiloLogger>, SinkError> {
        SiloLogger::new_on(config, epochs, Arc::new(RealFs))
    }

    /// [`SiloLogger::new`] over the file system `fs`.
    pub(crate) fn new_on(
        config: LogConfig,
        epochs: Arc<silo_core::EpochManager>,
        fs: Arc<dyn Fs>,
    ) -> Result<Arc<SiloLogger>, SinkError> {
        let num_loggers = config.num_loggers.max(1);

        // Open the per-logger sinks before spawning threads.
        let sinks = (0..num_loggers)
            .map(|i| FileSink::open(&config, i, &fs))
            .collect::<Result<Vec<_>, _>>()?;

        let inbox_depth = config.pool_buffers + 16;
        let shared = Arc::new(LoggerShared {
            pool: BufferPool::new(&config),
            config,
            workers: (0..MAX_WORKERS).map(|_| WorkerLogState::new()).collect(),
            inboxes: (0..num_loggers).map(|_| Inbox::new(inbox_depth)).collect(),
            stats: StdMutex::default(),
            durable_epochs: (0..num_loggers)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            durable: StdMutex::new(0),
            durable_cv: Condvar::new(),
            durable_listeners: Mutex::new(Vec::new()),
            truncate_epoch: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            started: Instant::now(),
            advanced_at_ns: AtomicU64::new(0),
        });
        let listener: Arc<dyn AdvanceListener> = Arc::clone(&shared) as _;
        epochs.add_advance_listener(Arc::downgrade(&listener));

        let mut handles = Vec::new();
        for (i, mut sink) in sinks.into_iter().enumerate() {
            let thread_shared = Arc::clone(&shared);
            let thread_epochs = Arc::clone(&epochs);
            let spawned = std::thread::Builder::new()
                .name(format!("silo-logger-{i}"))
                .spawn(move || {
                    logger_thread(i, thread_shared, &mut sink, thread_epochs);
                });
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    // Unwind: stop the loggers already running before
                    // reporting the failure.
                    shared.stop.store(true, Ordering::Release);
                    shared.wake_loggers();
                    for h in handles {
                        let _ = h.join();
                    }
                    return Err(SinkError::setup(
                        "spawn",
                        format!("cannot spawn logger thread {i}: {e}"),
                    ));
                }
            }
        }

        Ok(Arc::new(SiloLogger {
            shared,
            handles: Mutex::new(handles),
            epochs,
            fs,
        }))
    }

    /// Convenience constructor: creates the logger and installs it as the
    /// database's commit hook. Setup failures (including a commit hook
    /// already being installed) are returned as typed errors.
    pub fn install(config: LogConfig, db: &Arc<Database>) -> Result<Arc<SiloLogger>, SinkError> {
        let logger = SiloLogger::new(config, Arc::clone(db.epochs()))?;
        if db
            .set_commit_hook(Arc::clone(&logger) as Arc<dyn CommitHook>)
            .is_err()
        {
            logger.shutdown();
            return Err(SinkError::setup(
                "install",
                "a commit hook was already installed".to_string(),
            ));
        }
        Ok(logger)
    }

    /// The logging configuration.
    pub fn config(&self) -> &LogConfig {
        &self.shared.config
    }

    /// The global durable epoch `D = min d_l`: every transaction whose TID
    /// epoch is `≤ D` is durably logged.
    pub fn durable_epoch(&self) -> u64 {
        self.shared.durable_epoch()
    }

    /// Blocks until the durable epoch reaches `epoch` (with a timeout).
    ///
    /// Waiters park on a condvar that the logger threads signal whenever the
    /// global durable epoch advances, so this costs no CPU while parked. If
    /// the epoch can never become durable — a logger failed permanently (its
    /// local durable epoch is frozen), or [`SiloLogger::shutdown`] stopped
    /// the logger threads — waiters are woken and get [`DurableWait::Failed`]
    /// instead of blocking until the timeout.
    ///
    /// The calling thread must not hold a [`silo_core::Worker`] inside an
    /// epoch while it waits: a worker pinned at `e_w = e` stops the global
    /// epoch at `e + 1` and the durable epoch below `e`, so a wait for `e`
    /// can only time out. Drop the worker or `quiesce()` it before parking
    /// here, or wait on another thread while the worker keeps committing.
    pub fn wait_for_durable(&self, epoch: u64, timeout: Duration) -> DurableWait {
        self.wait_until_durable(epoch, Some(std::time::Instant::now() + timeout))
    }

    /// Blocks until the durable epoch reaches `epoch`, with no timeout — the
    /// group-commit wait. Returns [`DurableWait::Durable`] once `D ≥ epoch`,
    /// or [`DurableWait::Failed`] if that can never happen: a logger thread
    /// failed permanently, or [`SiloLogger::shutdown`] stopped the logger
    /// threads before the epoch was reached.
    ///
    /// This is the right call for batch acknowledgement (a network server
    /// acking a pipeline of writes, the driver's latency sampler): many
    /// callers waiting on the same epoch park on one condvar and are all
    /// released by the single durable-epoch advance that covers them, so the
    /// cost is one wait per *group*, not per transaction. Use
    /// [`SiloLogger::wait_for_durable`] instead when the caller needs to
    /// observe slow progress (timeouts) rather than only terminal states.
    ///
    /// As there, `quiesce()` or drop the calling thread's own worker first: a
    /// worker left inside epoch `e` holds the durable epoch below `e`, and
    /// this wait has no timeout to end it.
    pub fn wait_for_durable_epoch(&self, epoch: u64) -> DurableWait {
        self.wait_until_durable(epoch, None)
    }

    /// The one durable wait: parks until `D ≥ epoch`, a logger closed its
    /// mailbox (it failed or stopped, so `D` is final), or `deadline` (if
    /// any) passes.
    fn wait_until_durable(&self, epoch: u64, deadline: Option<std::time::Instant>) -> DurableWait {
        // Fast path: the published durable epoch already covers the request;
        // skip the mutex entirely (this is the common case for every
        // transaction in a group after the first waiter was released).
        if self.shared.durable_epoch() >= epoch {
            return DurableWait::Durable;
        }
        let mut durable = lock(&self.shared.durable);
        while *durable < epoch {
            if self.shared.any_closed() {
                return DurableWait::Failed;
            }
            durable = match deadline {
                None => self
                    .shared
                    .durable_cv
                    .wait(durable)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        return DurableWait::Timeout;
                    }
                    self.shared
                        .durable_cv
                        .wait_timeout(durable, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
        DurableWait::Durable
    }

    /// The durability subsystem's health, for backpressure:
    ///
    /// * [`DurabilityHealth::Failed`] — a logger failed permanently; the
    ///   durable epoch is frozen and new commits will never be acknowledged.
    /// * [`DurabilityHealth::Degraded`] — the durable epoch lags the global
    ///   epoch by more than [`LogConfig::max_durable_lag_epochs`] (a stalled
    ///   or backlogged device). Callers should shed or slow down.
    /// * [`DurabilityHealth::Healthy`] — otherwise.
    pub fn durability_health(&self) -> DurabilityHealth {
        if lock(&self.shared.stats).logger_failures > 0 {
            return DurabilityHealth::Failed;
        }
        let lag = self
            .epochs
            .global_epoch()
            .saturating_sub(self.shared.durable_epoch());
        if lag > self.shared.config.max_durable_lag_epochs {
            DurabilityHealth::Degraded { lag_epochs: lag }
        } else {
            DurabilityHealth::Healthy
        }
    }

    /// Whether the transaction with this TID is durable.
    pub fn is_durable(&self, tid: Tid) -> bool {
        tid.epoch() <= self.durable_epoch()
    }

    /// A snapshot of the subsystem's counters, taken under one lock hold:
    /// every event it shows is counted in full.
    pub fn stats(&self) -> LoggerStats {
        let plan = self.shared.config.fault.as_ref();
        LoggerStats {
            faults_injected: plan.map_or(0, |plan| plan.injected()),
            ..lock(&self.shared.stats).clone()
        }
    }

    /// Requests log truncation against a durable checkpoint at `ckpt_epoch`:
    /// each logger thread rotates its current segment, stamps the fresh
    /// segment with a durable-epoch marker, and deletes closed segments whose
    /// records all have epochs `≤ ckpt_epoch` (the checkpoint already covers
    /// those transactions). Asynchronous — returns immediately.
    ///
    /// The caller must only pass epochs of *complete, durable* checkpoints
    /// (`durable_epoch() ≥ ckpt_epoch` and the manifest written), or
    /// recovery may lose transactions.
    pub fn truncate_logs(&self, ckpt_epoch: u64) {
        self.shared
            .truncate_epoch
            .fetch_max(ckpt_epoch, Ordering::AcqRel);
        self.shared.wake_loggers();
    }

    /// Stops the logger threads after they drain already-published buffers.
    /// Each closes its mailbox on the way out, so later publishes drop their
    /// records. Worker buffers not yet published are lost (they were not
    /// durable).
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.wake_loggers();
        let mut handles = self.handles.lock();
        for h in handles.drain(..) {
            let _ = h.join();
        }
        // Unblock every waiter — its epoch became durable during the final
        // rounds, or never will.
        self.shared.notify_durable(lock(&self.shared.durable));
    }

    /// Registers `listener` to be told the durable epoch `D` whenever a
    /// [`SiloLogger::wait_for_durable_epoch`] waiter would be woken: `D`
    /// advanced, a logger failed permanently, or [`SiloLogger::shutdown`]
    /// ran. In the last two cases `D` may not have moved; ask
    /// [`SiloLogger::wait_for_durable`] with a zero timeout which it was.
    /// Runs on a logger thread (or the one calling `shutdown`): keep it
    /// short, and do not call back into the logger. Held weakly: a listener
    /// whose last `Arc` is gone is never called again.
    pub fn add_durable_listener(&self, listener: Weak<dyn AdvanceListener>) {
        self.shared.durable_listeners.lock().push(listener);
    }
}

impl CommitHook for SiloLogger {
    fn on_commit(&self, worker_id: usize, tid: Tid, writes: CommitWrites<'_>) {
        let shared = &self.shared;
        let state = &shared.workers[worker_id];
        let mut buffer = state.buffer.lock();

        // A new epoch begins: publish the previous buffer first so that the
        // logger can advance the durable epoch without waiting for this
        // buffer to fill (§4.10).
        let pending = state.pending_epoch.load(Ordering::Relaxed);
        if pending != 0 && pending != tid.epoch() {
            shared.publish(worker_id, &mut buffer, pending);
        }

        // Zero-copy handoff: serialize each write straight from the
        // committing worker's (arena-backed) write-set into the log buffer.
        // Records are written raw even in `+Compress` mode — the logger
        // threads compress while batching, keeping the CPU cost off the
        // commit path.
        let small = matches!(shared.config.mode, LogMode::SmallRecords);
        encode_txn(&mut buffer, tid, writes.iter(), small);

        if buffer.len() >= shared.config.buffer_capacity {
            shared.publish(worker_id, &mut buffer, tid.epoch());
        }
        // Record what is still unpublished (all records in a buffer share one
        // epoch, see the epoch-boundary publish above) while the buffer lock
        // is held, so the logger always observes a coherent pair.
        state.pending_epoch.store(
            if buffer.is_empty() { 0 } else { tid.epoch() },
            Ordering::Release,
        );
    }

    fn durability_health(&self) -> DurabilityHealth {
        SiloLogger::durability_health(self)
    }
}

impl Drop for SiloLogger {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reusable compression scratch owned by each logger thread: the match-finder
/// hash table and the compressed-output staging buffer survive across rounds,
/// so logger-side compression allocates nothing in steady state.
struct Compressor {
    scratch: Vec<u8>,
    heads: Vec<usize>,
}

/// Backoff after the first transient sink error; doubles per consecutive
/// retry, capped at 64× this value.
const RETRY_BACKOFF: Duration = Duration::from_micros(500);
/// Total backoff a logger may sleep for one operation before it gives up,
/// marks itself failed, and freezes its durable epoch.
const RETRY_BUDGET: Duration = Duration::from_secs(2);

/// Retries `op` after transient failures with capped exponential backoff.
///
/// The backoff starts at `RETRY_BACKOFF`, doubles per consecutive failure
/// (capped at 64×), and the total sleep is bounded by `RETRY_BUDGET`. A
/// permanent error, or a transient one that outlives the budget, is returned
/// to the caller — which fails the logger.
fn with_retry(
    shared: &LoggerShared,
    mut op: impl FnMut() -> Result<(), SinkError>,
) -> Result<(), SinkError> {
    let mut backoff = RETRY_BACKOFF;
    let cap = backoff * 64;
    let mut slept = Duration::ZERO;
    loop {
        match op() {
            Ok(()) => return Ok(()),
            Err(e) if e.is_transient() && slept < RETRY_BUDGET => {
                {
                    let mut stats = lock(&shared.stats);
                    stats.retries += 1;
                    stats.backoff_micros += backoff.as_micros() as u64;
                }
                std::thread::sleep(backoff);
                slept += backoff;
                backoff = (backoff * 2).min(cap);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Writes one coalesced round to the sink: append + sync, both retried on
/// transient errors with the [`with_retry`] backoff policy.
///
/// A failed **sync**, however, is never retried on the same descriptor.
/// After a failed fsync the kernel may mark the still-unwritten dirty pages
/// clean, so a second fsync can report success without the data ever
/// reaching the device ("fsyncgate" — the failure mode that corrupted
/// PostgreSQL WALs for years). The only sound retry path reopens the file,
/// discards the unsynced tail, re-appends the round, and syncs the fresh
/// descriptor.
///
/// Returns the nanoseconds the round spent appending and syncing.
fn write_round(
    shared: &LoggerShared,
    sink: &mut FileSink,
    round: &[u8],
) -> Result<(u64, u64), SinkError> {
    let started = Instant::now();
    with_retry(shared, || sink.append(round))?;
    let appended = Instant::now();
    let mut retry = false;
    with_retry(shared, || {
        if std::mem::replace(&mut retry, true) {
            sink.reopen()?;
            lock(&shared.stats).sync_reopens += 1;
            // The reopen dropped the round along with the rest of the
            // unsynced tail; put it back before syncing again.
            with_retry(shared, || sink.append(round))?;
        }
        sink.sync()
    })?;
    Ok((
        (appended - started).as_nanos() as u64,
        appended.elapsed().as_nanos() as u64,
    ))
}

/// Writes one CRC-sealed round: `fill` appends its blocks to the cleared
/// `round` buffer and returns the largest epoch they carry (which bounds the
/// segment's contents), then the envelope is sealed, appended and synced. Once it has
/// reached the sink it is counted in `checksum_blocks`, `bytes_written` and
/// the phase times, under one lock hold. An empty envelope writes nothing and
/// returns `false`.
fn write_sealed_round(
    shared: &LoggerShared,
    sink: &mut FileSink,
    round: &mut Vec<u8>,
    fill: impl FnOnce(&mut Vec<u8>) -> u64,
) -> Result<bool, SinkError> {
    round.clear();
    let header = record::begin_sealed(round);
    let max_epoch = fill(round);
    let sealing = Instant::now();
    if !record::seal(round, header) {
        return Ok(false);
    }
    let seal_ns = sealing.elapsed().as_nanos() as u64;
    sink.observe_epoch(max_epoch);
    let (append_ns, sync_ns) = write_round(shared, sink, round)?;
    let mut stats = lock(&shared.stats);
    stats.checksum_blocks += 1;
    stats.seal_ns += seal_ns;
    stats.append_ns += append_ns;
    stats.sync_ns += sync_ns;
    stats.bytes_written += round.len() as u64;
    Ok(true)
}

/// Body of each logger thread: runs the group-commit loop and, should the
/// sink fail permanently, degrades instead of aborting the process — the
/// logger closes its mailbox and recycles what was queued (its durable epoch
/// is frozen, so those records can never become durable; later publishes
/// drop theirs and workers run on at full speed), counts the failure (health
/// reports [`DurabilityHealth::Failed`]) and wakes the waiters, which get
/// [`DurableWait::Failed`].
fn logger_thread(
    logger_index: usize,
    shared: Arc<LoggerShared>,
    sink: &mut FileSink,
    epochs: Arc<silo_core::EpochManager>,
) {
    let Err(e) = logger_loop(logger_index, &shared, sink, &epochs) else {
        return;
    };
    eprintln!("silo-logger-{logger_index}: durability failed, degrading: {e}");
    let queued = shared.inboxes[logger_index].close();
    queued
        .into_iter()
        .for_each(|(_, bytes)| shared.pool.put(bytes));
    lock(&shared.stats).logger_failures += 1;
    shared.notify_durable(lock(&shared.durable));
}

/// How long an idle logger sleeps when no publish, epoch advance or stop
/// wakes it. A safety net: every cause of a round has its own wake.
const IDLE_FALLBACK: Duration = Duration::from_secs(1);

/// First re-poll interval while a worker is still inside an older epoch.
const REPOLL_MIN: Duration = Duration::from_micros(50);

/// The fallible group-commit loop of one logger thread (§4.10); an `Err`
/// means the sink is unusable and the logger must degrade.
fn logger_loop(
    logger_index: usize,
    shared: &Arc<LoggerShared>,
    sink: &mut FileSink,
    epochs: &Arc<silo_core::EpochManager>,
) -> Result<(), SinkError> {
    let num_loggers = shared.inboxes.len();
    let inbox = &shared.inboxes[logger_index];
    let my_durable = &shared.durable_epochs[logger_index];
    // Checkpoint epoch this logger last truncated its segments against.
    let mut last_truncated = 0u64;
    // `E` as of the previous round, and the re-poll interval while that
    // round found a worker still inside an older epoch (see the wait below).
    let mut last_epoch = 0u64;
    let mut repoll: Option<Duration> = None;

    // Round-local reusable state: the drained mailbox swap partner, the
    // coalesced output for one group-commit round, and compression scratch.
    let mut drained: Vec<(u64, Vec<u8>)> = Vec::with_capacity(shared.config.pool_buffers + 16);
    let mut round: Vec<u8> = Vec::with_capacity(shared.config.buffer_capacity * 2);
    let mut compressor = shared.config.compress.then(|| Compressor {
        scratch: Vec::with_capacity(shared.config.buffer_capacity),
        heads: Vec::new(),
    });

    // Appends every drained buffer to the round, compressing it when
    // configured, and recycles it into the pool. Returns the largest epoch
    // the buffers carry.
    let coalesce = |round: &mut Vec<u8>,
                    drained: &mut Vec<(u64, Vec<u8>)>,
                    compressor: &mut Option<Compressor>| {
        let mut max_epoch = 0u64;
        for (epoch, bytes) in drained.drain(..) {
            max_epoch = max_epoch.max(epoch);
            match compressor {
                Some(c) => encode_compressed_into(round, &bytes, &mut c.scratch, &mut c.heads),
                None => round.extend_from_slice(&bytes),
            }
            shared.pool.put(bytes);
        }
        max_epoch
    };

    loop {
        // Wait for a reason to run a round: a worker published a buffer, the
        // global epoch advanced (the advance listener notifies this condvar),
        // or the subsystem is stopping. One cause has no event: a worker
        // that was still inside an older epoch last round moves the bound
        // when it begins its next transaction or quiesces, and neither
        // notifies anyone — a busy worker is mid-transaction at almost every
        // advance. Only then is the wait a short re-poll, doubling so that a
        // transaction held open for seconds costs a handful of wake-ups.
        // `IDLE_FALLBACK` is a safety net; no bound depends on it.
        //
        // The mailbox is NOT drained yet: the floor must be read and the
        // steal done first, so that every buffer below the floor is drained
        // into this very round — draining first would let a buffer published
        // between drain and floor be declared durable one round before it
        // reaches the sink.
        {
            let queue = lock(&inbox.queue);
            if queue.is_empty()
                && epochs.global_epoch() == last_epoch
                && !shared.stop.load(Ordering::Acquire)
            {
                drop(
                    inbox
                        .cv
                        .wait_timeout(queue, repoll.unwrap_or(IDLE_FALLBACK))
                        .unwrap_or_else(PoisonError::into_inner),
                );
            }
        }
        let stopping = shared.stop.load(Ordering::Acquire);

        // This logger's durable bound. Read `E`, then the workers' epochs,
        // then their buffers — the order is the proof. A worker seen
        // quiescent, or at `e_w = x`, made every earlier commit's
        // `pending_epoch` store before the epoch store we just read, so the
        // buffer scan below sees it; whatever it commits after that lands in
        // an epoch `≥ x`, and a worker whose `begin` we missed reads its
        // commit epoch after we read `E` (the fence here pairs with the one
        // in front of that read), so it lands in an epoch `≥ E`. So `floor`
        // is below every commit the scan can miss, and the scan covers the
        // rest: a buffer below the floor is steal-published into this round
        // (its worker may be idle or dropped, and it is the only thing
        // holding that epoch back); one at or above it holds only epochs
        // `≥ floor`. So `d_l = floor − 1`.
        let e_now = epochs.global_epoch();
        fence(Ordering::SeqCst);
        let floor = epochs.min_worker_epoch().map_or(e_now, |e| e.min(e_now));
        let workers = shared.workers[..epochs.high_water()].iter().enumerate();
        for (wid, state) in workers.skip(logger_index).step_by(num_loggers) {
            if !(1..floor).contains(&state.pending_epoch.load(Ordering::Acquire)) {
                continue;
            }
            // Commits only ever append complete records, so the buffer is
            // always safe to ship. Re-read under the lock: the worker may
            // have published or committed since.
            let mut buffer = state.buffer.lock();
            let pending = state.pending_epoch.load(Ordering::Acquire);
            if (1..floor).contains(&pending) {
                shared.publish(wid, &mut buffer, pending);
                state.pending_epoch.store(0, Ordering::Release);
                lock(&shared.stats).steal_publishes += 1;
            }
        }
        let local_durable = floor.saturating_sub(1);
        last_epoch = e_now;
        repoll = (floor < e_now).then(|| repoll.map_or(REPOLL_MIN, |d| (d * 2).min(IDLE_FALLBACK)));

        // Drain the mailbox *after* the steal: every buffer below the floor
        // (including this round's steals, which went through our own
        // mailbox) is now in `drained` and reaches the sink before the
        // marker that may declare its epoch durable.
        std::mem::swap(&mut *lock(&inbox.queue), &mut drained);

        // Coalesce everything drained this round — published buffers
        // (compressed here in `+Compress` mode) followed by the durable-epoch
        // marker — into one CRC-sealed envelope, one append + sync.
        let published = !drained.is_empty();
        let prev = my_durable.load(Ordering::Acquire);
        let wrote = write_sealed_round(shared, sink, &mut round, |round| {
            let max_epoch = coalesce(round, &mut drained, &mut compressor);
            if published || local_durable > prev {
                encode_epoch_marker(round, local_durable);
            }
            max_epoch.max(local_durable)
        })?;
        if wrote {
            let mut stats = lock(&shared.stats);
            stats.sync_calls += 1;
            if local_durable > prev {
                my_durable.store(local_durable, Ordering::Release);
                stats.durable_advances += 1;
                stats.durable_advance_ns += shared
                    .now_ns()
                    .saturating_sub(shared.advanced_at_ns.load(Ordering::Relaxed));
                drop(stats);
                // Signal waiters when the *global* durable epoch moved. The
                // min over the per-logger atomics is recomputed *inside* the
                // mutex: each logger stores its slot before locking, so the
                // last logger through the critical section observes every
                // concurrent store and the cache cannot go permanently stale
                // (reading the min before locking would allow two loggers to
                // each miss the other's store — the classic store-buffer
                // reordering — and strand waiters at the old epoch).
                let mut cached = lock(&shared.durable);
                let global = shared.durable_epoch();
                if global > *cached {
                    *cached = global;
                    shared.notify_durable(cached);
                }
            }
        }

        // Segment maintenance, after the round is durable: rotate when the
        // segment is full or a checkpoint requested truncation, stamp the
        // fresh segment with a durable-epoch marker (so the stream's durable
        // floor survives deletion of every older segment), then delete the
        // segments the checkpoint made redundant.
        let trunc = shared.truncate_epoch.load(Ordering::Acquire);
        if trunc > last_truncated || sink.should_rotate() {
            match sink.rotate() {
                Ok(true) => {
                    lock(&shared.stats).segments_rotated += 1;
                    write_sealed_round(shared, sink, &mut round, |round| {
                        let d = my_durable.load(Ordering::Acquire);
                        encode_epoch_marker(round, d);
                        d
                    })?;
                }
                Ok(false) => {}
                // A failed rotation (e.g. ENOSPC creating the successor
                // segment) is not fatal: the current segment stays writable,
                // logging continues, and the rotation is retried on a later
                // round — by which time a checkpoint truncation may have
                // freed space.
                Err(_) => {}
            }
            if trunc > last_truncated {
                let outcome = sink.truncate_obsolete(trunc);
                {
                    let mut stats = lock(&shared.stats);
                    stats.segments_deleted += outcome.segments_deleted;
                    stats.bytes_truncated += outcome.bytes_deleted;
                    stats.truncate_failures += outcome.delete_failures;
                }
                if outcome.delete_failures > 0 {
                    eprintln!(
                        "silo-logger-{logger_index}: {} segment deletion(s) failed during truncation to epoch {trunc}; will retry",
                        outcome.delete_failures
                    );
                    // Leave `last_truncated` behind so the next round retries
                    // the failed deletions.
                } else {
                    last_truncated = trunc;
                }
            }
        }

        if stopping {
            // Close the mailbox and write what it still holds, so buffers
            // published while this round was being written still hit the
            // sink and none can land after it.
            drained = inbox.close();
            if write_sealed_round(shared, sink, &mut round, |round| {
                coalesce(round, &mut drained, &mut compressor)
            })? {
                lock(&shared.stats).sync_calls += 1;
            }
            return Ok(());
        }
    }
}

#[cfg(test)]
mod bound_tests;
#[cfg(test)]
mod hook_tests;
#[cfg(test)]
mod listener_tests;
#[cfg(test)]
mod testkit;
/// Logger tests, one file per seam: commit to durable, checkpoints, sink
/// faults, the checkpoint-equivalence property, and power-loss states. The
/// files are spliced into this one module, so a test's path stays
/// `tests::<name>` whichever file holds it; they share the imports below.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::xorshift;
    use crate::fs::{FsFile, Open};
    use crate::testkit::*;
    use silo_core::SiloConfig;
    use std::collections::{BTreeMap, BTreeSet};
    use std::io;
    use std::path::Path;
    use std::sync::Arc;

    include!("durable_tests.rs");
    include!("checkpoint_tests.rs");
    include!("fault_tests.rs");
    include!("equivalence_tests.rs");
    include!("fs_tests.rs");
}
