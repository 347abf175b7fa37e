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
//!   `d_l`, persist it, and publish it. Only two things hold `d_l` back: a
//!   buffer a worker has not published yet, and a worker still inside an
//!   older epoch — so `d_l = min(E, min e_w, epoch of every unpublished
//!   buffer) − 1` (see `logger_loop`). Loggers are event-driven: a round
//!   starts when a worker publishes a buffer or when the global epoch
//!   advances (an [`AdvanceListener`]), so a commit is durable one epoch
//!   boundary and one sync after it happened;
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
//! epoch could produce an inconsistent state. [`recover_into`] runs the same
//! replay over in-memory streams.
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
//! by the *logger* threads, off the workers' commit path), plus an in-memory
//! sink that stands in for the paper's `Silo+tmpfs` configuration.

#![warn(missing_docs)]
// Raw key/value byte tuples are part of this crate's vocabulary; aliasing
// them away would obscure more than it clarifies.
#![allow(clippy::type_complexity)]

pub mod checkpoint;
pub mod compress;
pub mod fault;
pub mod record;
mod recovery;
mod sink;

pub use checkpoint::{
    complete_checkpoints, latest_checkpoint, verify_checkpoint, CheckpointConfig, CheckpointInfo,
    CheckpointStats, Checkpointer,
};
pub use fault::{FaultKind, FaultPlan, FaultSite};
pub use recovery::{
    recover_directory, recover_into, RecoveryError, RecoveryOptions, RecoveryReport,
};
pub use sink::{FileSink, LogSink, MemorySink, SinkError, SinkErrorKind, TruncateOutcome};

use std::path::PathBuf;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use silo_core::{AdvanceListener, CommitHook, CommitWrites, Database, DurabilityHealth, Tid};

use record::{encode_compressed_into, encode_epoch_marker, encode_txn};

/// Maximum number of workers the logging subsystem supports.
pub const MAX_WORKERS: usize = 256;

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

/// Where log bytes go.
#[derive(Debug, Clone)]
pub enum LogDestination {
    /// One stream of segment files per logger under this directory
    /// (`silo-log-<logger>-seg<seq>.bin`), next to the checkpoints.
    Directory(PathBuf),
    /// Keep log bytes in memory — the stand-in for the paper's `Silo+tmpfs`
    /// configuration, isolating logging-subsystem overhead from device
    /// overhead.
    Memory,
}

/// Durability configuration.
///
/// The struct is `#[non_exhaustive]`: construct it with [`Default`],
/// [`LogConfig::to_directory`], or [`LogConfig::in_memory`] and refine it
/// with the builder-style `with_*` methods, so new knobs are never a
/// breaking change for downstream code:
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
    /// Where to write the log.
    pub destination: LogDestination,
    /// Number of logger threads (the paper uses 4).
    pub num_loggers: usize,
    /// Record contents ([`LogMode`]).
    pub mode: LogMode,
    /// Compress published buffers before they hit the sink (`+Compress`).
    /// Compression runs on the logger threads, not the workers' commit path.
    pub compress: bool,
    /// Call `fsync` after each logger write batch.
    pub fsync: bool,
    /// Worker buffer fill level that triggers a publish to the logger.
    pub buffer_capacity: usize,
    /// Buffers pre-allocated into the recycled pool at startup. Size this at
    /// least to the expected number of buffers in flight (workers plus queue
    /// depth) so that steady-state publishes never hit the allocator.
    pub pool_buffers: usize,
    /// Rotate a logger's file into a fresh segment once it exceeds this many
    /// bytes (directory destinations only). Smaller segments let checkpoints
    /// truncate the log at a finer grain; each rotation costs one fsync.
    pub segment_bytes: u64,
    /// Initial backoff after a transient sink error; doubles per consecutive
    /// retry (capped at 64× this value).
    pub retry_backoff: Duration,
    /// Total backoff a logger may accumulate for one operation before it
    /// gives up, marks itself failed, and freezes its durable epoch.
    pub retry_budget: Duration,
    /// Durable-epoch lag (global epoch − durable epoch) beyond which
    /// [`SiloLogger::durability_health`] reports
    /// [`DurabilityHealth::Degraded`] — the backpressure watermark a stalled
    /// disk trips.
    pub max_durable_lag_epochs: u64,
    /// Fault-injection plan for tests; `None` (the default) adds no wrapper
    /// and no per-operation cost.
    pub fault: Option<Arc<FaultPlan>>,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            destination: LogDestination::Memory,
            num_loggers: 1,
            mode: LogMode::FullRecords,
            compress: false,
            fsync: false,
            buffer_capacity: 64 * 1024,
            pool_buffers: 16,
            segment_bytes: 64 << 20,
            retry_backoff: Duration::from_micros(500),
            retry_budget: Duration::from_secs(2),
            max_durable_lag_epochs: 128,
            fault: None,
        }
    }
}

impl LogConfig {
    /// Logs to files under `dir` with the given number of loggers.
    pub fn to_directory(dir: impl Into<PathBuf>, num_loggers: usize) -> Self {
        LogConfig {
            destination: LogDestination::Directory(dir.into()),
            num_loggers: num_loggers.max(1),
            ..Default::default()
        }
    }

    /// Logs to memory (the `Silo+tmpfs` stand-in).
    pub fn in_memory(num_loggers: usize) -> Self {
        LogConfig {
            destination: LogDestination::Memory,
            num_loggers: num_loggers.max(1),
            ..Default::default()
        }
    }

    /// Sets where log bytes go.
    pub fn with_destination(mut self, destination: LogDestination) -> Self {
        self.destination = destination;
        self
    }

    /// Sets the number of logger threads.
    pub fn with_num_loggers(mut self, num_loggers: usize) -> Self {
        self.num_loggers = num_loggers.max(1);
        self
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

    /// Sets the segment rotation threshold (directory destinations only).
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// Sets the initial retry backoff after a transient sink error.
    pub fn with_retry_backoff(mut self, backoff: Duration) -> Self {
        self.retry_backoff = backoff;
        self
    }

    /// Sets the total retry budget before a logger fails permanently.
    pub fn with_retry_budget(mut self, budget: Duration) -> Self {
        self.retry_budget = budget;
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

/// A snapshot of the logging subsystem's counters (see
/// [`SiloLogger::stats`]). All values are cumulative since the logger was
/// created.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoggerStats {
    /// Buffers handed from workers to logger threads (including steals and
    /// finish-flushes).
    pub buffers_published: u64,
    /// Buffers a logger pulled out of an idle worker whose partial buffer was
    /// holding the durable epoch back.
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
    /// CRC32-sealed envelopes written to the sinks (one per group-commit
    /// round or rotation stamp).
    pub checksum_blocks: u64,
    /// Faults the configured [`FaultPlan`] injected (0 without a plan).
    pub faults_injected: u64,
}

impl std::fmt::Display for LoggerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} buffers ({} stolen), pool {}/{} hits/misses, {} syncs, {} B published, {} B written, {} rotations, {} segments / {} B truncated, {} retries ({} µs backoff, {} sync reopens), {} failed loggers, {} checksummed rounds, {} faults injected",
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
        )
    }
}

/// Cumulative counters, updated by workers and logger threads.
#[derive(Default)]
struct Counters {
    buffers_published: AtomicU64,
    steal_publishes: AtomicU64,
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
    sync_calls: AtomicU64,
    bytes_published: AtomicU64,
    bytes_written: AtomicU64,
    segments_rotated: AtomicU64,
    segments_deleted: AtomicU64,
    bytes_truncated: AtomicU64,
    retries: AtomicU64,
    sync_reopens: AtomicU64,
    backoff_micros: AtomicU64,
    logger_failures: AtomicU64,
    truncate_failures: AtomicU64,
    checksum_blocks: AtomicU64,
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
    fn take(&self, counters: &Counters) -> Vec<u8> {
        match self.free.lock().pop() {
            Some(buf) => {
                counters.pool_hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                counters.pool_misses.fetch_add(1, Ordering::Relaxed);
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
/// the single epoch all records in the buffer share, which segmented sinks
/// use to bound each segment's contents) and wake the logger through the
/// condvar; the logger swaps the whole queue out in one lock acquisition.
/// Both sides reuse their `Vec`s, so steady-state traffic allocates nothing
/// (unlike a linked-list channel, whose sends allocate a node on the worker
/// thread).
struct Inbox {
    queue: StdMutex<Vec<(u64, Vec<u8>)>>,
    cv: Condvar,
}

impl Inbox {
    fn new(depth_hint: usize) -> Self {
        Inbox {
            queue: StdMutex::new(Vec::with_capacity(depth_hint)),
            cv: Condvar::new(),
        }
    }
}

/// Per-worker logging state.
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
    counters: Counters,
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
    /// Set once the logger threads have been joined: from then on nothing
    /// will ever drain the mailboxes, so publishes drop their records
    /// instead of growing a dead queue.
    detached: AtomicBool,
}

impl LoggerShared {
    /// Flushes a worker's buffer to its logger: the full buffer is swapped
    /// for a recycled one and pushed into the logger's mailbox (tagged with
    /// `epoch`, the single epoch of every record it holds), waking it.
    fn publish(&self, worker_id: usize, buffer: &mut Vec<u8>, epoch: u64) {
        if buffer.is_empty() {
            return;
        }
        if self.detached.load(Ordering::Acquire) {
            // The logger threads are gone; these records can never become
            // durable. Drop them (they were not durable anyway) rather than
            // leaking them into a mailbox nothing drains. `stop` alone is
            // not enough here: during the stopping round the loggers still
            // steal-publish and final-drain, and a buffer their durable
            // bound accounts for must reach the sink.
            buffer.clear();
            return;
        }
        let bytes = std::mem::replace(buffer, self.pool.take(&self.counters));
        self.counters
            .bytes_published
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.counters
            .buffers_published
            .fetch_add(1, Ordering::Relaxed);
        let inbox = &self.inboxes[worker_id % self.inboxes.len()];
        lock(&inbox.queue).push((epoch, bytes));
        inbox.cv.notify_one();
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
    /// Memory sinks (one per logger) when the destination is `Memory`.
    memory_sinks: Vec<Arc<Mutex<Vec<u8>>>>,
    /// The database's epoch manager, for the durable-lag watermark.
    epochs: Arc<silo_core::EpochManager>,
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
        let num_loggers = config.num_loggers.max(1);

        // Build the per-logger sinks before spawning threads.
        let mut memory_sinks = Vec::new();
        let mut sinks: Vec<Box<dyn LogSink + Send>> = Vec::new();
        for i in 0..num_loggers {
            let sink: Box<dyn LogSink + Send> = match &config.destination {
                LogDestination::Directory(dir) => Box::new(FileSink::open(
                    dir,
                    i,
                    num_loggers,
                    config.fsync,
                    config.segment_bytes,
                )?),
                LogDestination::Memory => {
                    let buf = Arc::new(Mutex::new(Vec::new()));
                    memory_sinks.push(Arc::clone(&buf));
                    Box::new(MemorySink::new(buf))
                }
            };
            match &config.fault {
                Some(plan) => sinks.push(Box::new(fault::FaultSink::new(sink, Arc::clone(plan)))),
                None => sinks.push(sink),
            }
        }

        let inbox_depth = config.pool_buffers + 16;
        let shared = Arc::new(LoggerShared {
            pool: BufferPool::new(&config),
            config,
            workers: (0..MAX_WORKERS).map(|_| WorkerLogState::new()).collect(),
            inboxes: (0..num_loggers).map(|_| Inbox::new(inbox_depth)).collect(),
            counters: Counters::default(),
            durable_epochs: (0..num_loggers)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            durable: StdMutex::new(0),
            durable_cv: Condvar::new(),
            durable_listeners: Mutex::new(Vec::new()),
            truncate_epoch: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            detached: AtomicBool::new(false),
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
                    logger_thread(i, thread_shared, sink.as_mut(), thread_epochs);
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
            memory_sinks,
            epochs,
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
    /// local durable epoch is frozen), or [`SiloLogger::shutdown`] detached
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
    /// failed permanently, or [`SiloLogger::shutdown`] detached the logger
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

    /// The one durable wait: parks until `D ≥ epoch`, durability can no
    /// longer advance, or `deadline` (if any) passes.
    fn wait_until_durable(&self, epoch: u64, deadline: Option<std::time::Instant>) -> DurableWait {
        // Fast path: the published durable epoch already covers the request;
        // skip the mutex entirely (this is the common case for every
        // transaction in a group after the first waiter was released).
        if self.shared.durable_epoch() >= epoch {
            return DurableWait::Durable;
        }
        let mut durable = lock(&self.shared.durable);
        while *durable < epoch {
            if self.shared.counters.logger_failures.load(Ordering::Acquire) > 0
                || self.shared.detached.load(Ordering::Acquire)
            {
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
        if self.shared.counters.logger_failures.load(Ordering::Acquire) > 0 {
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

    /// Total bytes published to logger threads so far.
    pub fn bytes_published(&self) -> u64 {
        self.shared.counters.bytes_published.load(Ordering::Relaxed)
    }

    /// A snapshot of the subsystem's counters.
    pub fn stats(&self) -> LoggerStats {
        let c = &self.shared.counters;
        LoggerStats {
            buffers_published: c.buffers_published.load(Ordering::Relaxed),
            steal_publishes: c.steal_publishes.load(Ordering::Relaxed),
            pool_hits: c.pool_hits.load(Ordering::Relaxed),
            pool_misses: c.pool_misses.load(Ordering::Relaxed),
            sync_calls: c.sync_calls.load(Ordering::Relaxed),
            bytes_published: c.bytes_published.load(Ordering::Relaxed),
            bytes_written: c.bytes_written.load(Ordering::Relaxed),
            segments_rotated: c.segments_rotated.load(Ordering::Relaxed),
            segments_deleted: c.segments_deleted.load(Ordering::Relaxed),
            bytes_truncated: c.bytes_truncated.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            sync_reopens: c.sync_reopens.load(Ordering::Relaxed),
            backoff_micros: c.backoff_micros.load(Ordering::Relaxed),
            logger_failures: c.logger_failures.load(Ordering::Relaxed),
            truncate_failures: c.truncate_failures.load(Ordering::Relaxed),
            checksum_blocks: c.checksum_blocks.load(Ordering::Relaxed),
            faults_injected: self
                .shared
                .config
                .fault
                .as_ref()
                .map_or(0, |plan| plan.injected()),
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

    /// The in-memory log contents (only for [`LogDestination::Memory`]); one
    /// buffer per logger. Used by tests and recovery-from-memory.
    pub fn memory_logs(&self) -> Vec<Vec<u8>> {
        self.memory_sinks.iter().map(|s| s.lock().clone()).collect()
    }

    /// Stops the logger threads after they drain already-published buffers.
    /// Worker buffers not yet published are lost (they were not durable).
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.wake_loggers();
        let mut handles = self.handles.lock();
        for h in handles.drain(..) {
            let _ = h.join();
        }
        // From here on nothing drains the mailboxes: later publishes drop
        // their records instead of queueing them.
        self.shared.detached.store(true, Ordering::Release);
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
        assert!(worker_id < MAX_WORKERS, "worker id exceeds MAX_WORKERS");
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

    fn on_worker_finish(&self, worker_id: usize) {
        if worker_id >= MAX_WORKERS {
            return;
        }
        let state = &self.shared.workers[worker_id];
        let mut buffer = state.buffer.lock();
        let pending = state.pending_epoch.load(Ordering::Relaxed);
        self.shared.publish(worker_id, &mut buffer, pending);
        state.pending_epoch.store(0, Ordering::Release);
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

/// Retries `op` after transient failures with capped exponential backoff.
///
/// The backoff starts at [`LogConfig::retry_backoff`], doubles per
/// consecutive failure (capped at 64×), and the total sleep is bounded by
/// [`LogConfig::retry_budget`]. A permanent error, or a transient one that
/// outlives the budget, is returned to the caller — which fails the logger.
fn with_retry(
    shared: &LoggerShared,
    mut op: impl FnMut() -> Result<(), SinkError>,
) -> Result<(), SinkError> {
    let mut backoff = shared.config.retry_backoff.max(Duration::from_micros(1));
    let cap = backoff * 64;
    let mut slept = Duration::ZERO;
    loop {
        match op() {
            Ok(()) => return Ok(()),
            Err(e) if e.is_transient() && slept < shared.config.retry_budget => {
                shared.counters.retries.fetch_add(1, Ordering::Relaxed);
                shared
                    .counters
                    .backoff_micros
                    .fetch_add(backoff.as_micros() as u64, Ordering::Relaxed);
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
/// descriptor; sinks without descriptor semantics (in-memory, injected
/// faults on a memory sink) fall back to a plain re-sync.
fn write_round(
    shared: &LoggerShared,
    sink: &mut dyn LogSink,
    round: &[u8],
) -> Result<(), SinkError> {
    with_retry(shared, || sink.append(round))?;
    let mut retry = false;
    with_retry(shared, || {
        if std::mem::replace(&mut retry, true) && sink.reopen()? {
            shared.counters.sync_reopens.fetch_add(1, Ordering::Relaxed);
            // The reopen dropped the round along with the rest of the
            // unsynced tail; put it back before syncing again.
            with_retry(shared, || sink.append(round))?;
        }
        sink.sync()
    })
}

/// Writes one CRC-sealed round: `fill` appends its blocks to the cleared
/// `round` buffer and returns the largest epoch they carry (for segmented
/// sinks), then the envelope is sealed, appended, synced and counted in
/// `checksum_blocks` and `bytes_written`. An empty envelope writes nothing
/// and returns `false`.
fn write_sealed_round(
    shared: &LoggerShared,
    sink: &mut dyn LogSink,
    round: &mut Vec<u8>,
    fill: impl FnOnce(&mut Vec<u8>) -> u64,
) -> Result<bool, SinkError> {
    round.clear();
    let header = record::begin_sealed(round);
    let max_epoch = fill(round);
    if !record::seal(round, header) {
        return Ok(false);
    }
    let counters = &shared.counters;
    counters.checksum_blocks.fetch_add(1, Ordering::Relaxed);
    sink.observe_epoch(max_epoch);
    write_round(shared, sink, round)?;
    counters
        .bytes_written
        .fetch_add(round.len() as u64, Ordering::Relaxed);
    Ok(true)
}

/// Body of each logger thread: runs the group-commit loop and, should the
/// sink fail permanently, degrades instead of aborting the process — the
/// failure is counted (so [`SiloLogger::wait_for_durable`] reports
/// [`DurableWait::Failed`] and health reports [`DurabilityHealth::Failed`]),
/// waiters are woken, and the thread keeps draining its mailbox so workers
/// never block or leak on a dead logger.
fn logger_thread(
    logger_index: usize,
    shared: Arc<LoggerShared>,
    sink: &mut dyn LogSink,
    epochs: Arc<silo_core::EpochManager>,
) {
    let Err(e) = logger_loop(logger_index, &shared, sink, &epochs) else {
        return;
    };
    eprintln!("silo-logger-{logger_index}: durability failed, degrading: {e}");
    shared
        .counters
        .logger_failures
        .fetch_add(1, Ordering::Release);
    shared.notify_durable(lock(&shared.durable));
    // Degraded mode: drain and recycle published buffers until shutdown.
    // Their records can never become durable (this logger's durable epoch is
    // frozen), but accepting them keeps workers running at full speed.
    let inbox = &shared.inboxes[logger_index];
    let mut drained: Vec<(u64, Vec<u8>)> = Vec::new();
    loop {
        {
            let queue = lock(&inbox.queue);
            if queue.is_empty() {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                let mut queue = inbox
                    .cv
                    .wait_timeout(queue, Duration::from_millis(50))
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
                std::mem::swap(&mut *queue, &mut drained);
            } else {
                let mut queue = queue;
                std::mem::swap(&mut *queue, &mut drained);
            }
        }
        for (_, bytes) in drained.drain(..) {
            shared.pool.put(bytes);
        }
    }
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
    sink: &mut dyn LogSink,
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
        // The mailbox is NOT drained yet: the durable bound must be computed
        // first, so that every buffer the bound accounts for as "published"
        // is drained into this very round — draining first would let a
        // buffer slip in between drain and bound and be declared durable one
        // round before it reaches the sink.
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
        // (its worker may be idle, and it is the only thing holding that
        // epoch back), a buffer at or above it bounds `d` by its epoch.
        // Nothing else holds the durable epoch back.
        let e_now = epochs.global_epoch();
        fence(Ordering::SeqCst);
        let floor = epochs.min_worker_epoch().map_or(e_now, |e| e.min(e_now));
        let mut bound = floor;
        for (wid, state) in shared.workers.iter().enumerate() {
            if wid % num_loggers != logger_index {
                continue;
            }
            let mut pending = state.pending_epoch.load(Ordering::Acquire);
            if pending != 0 && pending < floor {
                // Commits only ever append complete records, so the buffer
                // is always safe to ship. Re-read under the lock: the worker
                // may have published or committed since.
                let mut buffer = state.buffer.lock();
                pending = state.pending_epoch.load(Ordering::Acquire);
                if pending != 0 && pending < floor {
                    shared.publish(wid, &mut buffer, pending);
                    state.pending_epoch.store(0, Ordering::Release);
                    shared
                        .counters
                        .steal_publishes
                        .fetch_add(1, Ordering::Relaxed);
                    pending = 0;
                }
            }
            if pending != 0 {
                bound = bound.min(pending);
            }
        }
        let local_durable = bound.saturating_sub(1);
        last_epoch = e_now;
        repoll = (floor < e_now).then(|| repoll.map_or(REPOLL_MIN, |d| (d * 2).min(IDLE_FALLBACK)));

        // Drain the mailbox *after* the bound: every buffer the bound
        // counted as published (including this round's steals, which went
        // through our own mailbox) is now in `drained` and reaches the sink
        // before the marker that may declare its epoch durable.
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
            shared.counters.sync_calls.fetch_add(1, Ordering::Relaxed);
            if local_durable > prev {
                my_durable.store(local_durable, Ordering::Release);
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
                    shared
                        .counters
                        .segments_rotated
                        .fetch_add(1, Ordering::Relaxed);
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
                shared
                    .counters
                    .segments_deleted
                    .fetch_add(outcome.segments_deleted, Ordering::Relaxed);
                shared
                    .counters
                    .bytes_truncated
                    .fetch_add(outcome.bytes_deleted, Ordering::Relaxed);
                if outcome.delete_failures > 0 {
                    shared
                        .counters
                        .truncate_failures
                        .fetch_add(outcome.delete_failures, Ordering::Relaxed);
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
            // One final drain so buffers published while this round was
            // being written still hit the sink.
            std::mem::swap(&mut *lock(&inbox.queue), &mut drained);
            if write_sealed_round(shared, sink, &mut round, |round| {
                coalesce(round, &mut drained, &mut compressor)
            })? {
                shared.counters.sync_calls.fetch_add(1, Ordering::Relaxed);
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
mod tests;
