//! The database catalog: tables, index trees, and engine-wide state.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;
use silo_check::HistoryRecorder;
use silo_epoch::{EpochAdvancer, EpochManager};
use silo_index::Tree;
use silo_tid::{GlobalTidGenerator, Tid, TidWord};

use crate::config::SiloConfig;
use crate::error::CatalogError;
use crate::gc::RecordSlab;
use crate::record::{Record, RecordPtr};
use crate::txn::WriteEntry;
use crate::worker::Worker;

/// Identifier of a table within a database.
pub type TableId = u32;

/// A table: a name plus the primary index tree mapping keys to records.
///
/// Secondary indexes are, as in the paper (§4.7), simply additional tables
/// whose records contain primary keys; the engine does not treat them
/// specially.
#[derive(Debug)]
pub struct Table {
    id: TableId,
    name: String,
    tree: Tree,
    /// The database's record slab under `+Allocator`, for the recovery
    /// paths that install and release records without a worker.
    records: Option<Arc<RecordSlab>>,
}

impl Table {
    /// The table's id.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying index tree. Exposed for the engine and for
    /// non-transactional baselines; transactional code goes through
    /// [`crate::Txn`].
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Number of keys, logically absent records included, counted by a walk
    /// of the whole index (O(n); approximate while writers are active).
    pub fn approximate_len(&self) -> usize {
        self.tree.len()
    }

    /// A record holding `data` for a path without a worker (recovery):
    /// carved from the record slab under `+Allocator` when a size class
    /// fits, else made by the global allocator.
    pub(crate) fn allocate_record(&self, data: &[u8], word: TidWord) -> *mut Record {
        self.records
            .as_ref()
            .and_then(|slab| slab.allocate(data, word))
            .unwrap_or_else(|| Record::allocate(data, word, 0))
    }

    /// Releases a record no thread can reach any more, on a path without a
    /// worker (recovery): a slab record is kept for the next worker to
    /// register, any other is freed.
    ///
    /// # Safety
    ///
    /// `record` must be a live record of this table that no thread can
    /// reach, released once.
    pub(crate) unsafe fn release_record(&self, record: *mut Record) {
        // SAFETY: live per the caller's contract.
        if unsafe { (*record).from_slab() } {
            let slab = self
                .records
                .as_ref()
                .expect("slab records exist only with a slab");
            // SAFETY: unreachable per the caller's contract.
            unsafe { slab.give_back(RecordPtr(record)) };
        } else {
            // SAFETY: as above, and not a slab record.
            unsafe { Record::free(record) };
        }
    }

    /// Frees every record reachable from the tree as the *latest* version
    /// that came from the global allocator. Slab records need nothing: their
    /// memory goes back with the record slab's chunks.
    ///
    /// Previous-version chain members are *not* followed: every superseded
    /// version was registered with some worker's garbage collector at the
    /// moment it was superseded, so it is either already freed (its pointer
    /// here would dangle) or owned by that worker's pending garbage list.
    /// Walking the chain would double-free the former; skipping it leaks the
    /// latter only when it came from the global allocator (without
    /// `+Allocator`, or larger than every size class): a slab record pending
    /// at worker shutdown goes back with the slab.
    ///
    /// # Safety
    ///
    /// Must only be called with exclusive access to the database (no workers,
    /// no concurrent transactions), i.e. from `Database::drop`.
    unsafe fn free_all_records(&self) {
        let all = self.tree.scan(b"", None, None);
        for (_, value) in all.entries {
            let record = value as *mut Record;
            // SAFETY: exclusive access per the caller's contract; head
            // records are owned by the tree and freed exactly once here.
            if !record.is_null() && unsafe { !(*record).from_slab() } {
                // SAFETY: as above.
                unsafe { Record::free(record) };
            }
        }
    }
}

/// One record modification reported to a [`CommitHook`].
#[derive(Debug, Clone, Copy)]
pub struct CommitWrite<'a> {
    /// The table the write applies to.
    pub table: TableId,
    /// The record's key.
    pub key: &'a [u8],
    /// The new value, or `None` for a delete.
    pub value: Option<&'a [u8]>,
}

/// A committed transaction's writes, passed to [`CommitHook::on_commit`]: a
/// borrowed view over the engine's arena-backed write-set, in lock order.
///
/// Iterating it yields each key and value where the transaction left them,
/// so the durability layer serializes every write straight into its log
/// buffer, with nothing cloned and no dynamic call per write: the zero-copy
/// commit→log handoff of §4.10.
#[derive(Debug, Clone, Copy)]
pub struct CommitWrites<'a>(&'a [WriteEntry]);

impl<'a> CommitWrites<'a> {
    /// A view over `entries`.
    ///
    /// # Safety
    ///
    /// The arena holding the entries' keys and values must not be rewound
    /// while the view is alive.
    pub(crate) unsafe fn new(entries: &'a [WriteEntry]) -> Self {
        CommitWrites(entries)
    }

    /// Number of writes in the transaction.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the transaction wrote nothing (never true for a view handed
    /// to a hook: read-only commits are not reported).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The writes, in write-set (lock) order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = CommitWrite<'a>> + 'a {
        self.0.iter().map(|w| {
            // SAFETY: the arena outlives the view (see `new`).
            let (key, value) = unsafe { (w.key.as_slice(), w.new_value.map(|v| v.as_slice())) };
            CommitWrite {
                table: w.table,
                key,
                value,
            }
        })
    }
}

/// The durability subsystem's backpressure signal (see
/// [`CommitHook::durability_health`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityHealth {
    /// Durability is keeping up with the global epoch.
    Healthy,
    /// The durable epoch is lagging the global epoch beyond the configured
    /// watermark (a stalled or backlogged log device). Commits still succeed
    /// but their durability acknowledgements are delayed; callers should
    /// shed load or slow down.
    Degraded {
        /// How many epochs the durable epoch trails the global epoch by.
        lag_epochs: u64,
    },
    /// Durability has failed permanently (e.g. a logger exhausted its retry
    /// budget on a dead device). Commits still execute in memory but will
    /// never be acknowledged durable.
    Failed,
}

/// Hook invoked by workers when a transaction commits, used by the durability
/// subsystem (`silo-log`) to build redo log records without the engine
/// depending on it.
pub trait CommitHook: Send + Sync {
    /// Called once per committed transaction that wrote something, after
    /// Phase 3 released all locks (a read-only commit has nothing to redo and
    /// is not reported, §4.10). `writes` exposes every modified record; the
    /// borrowed keys and values are only valid for the duration of the call.
    fn on_commit(&self, worker_id: usize, tid: Tid, writes: CommitWrites<'_>);

    /// The hook's current durability health, for backpressure. Hooks that
    /// cannot fail (or do not track failure) report
    /// [`DurabilityHealth::Healthy`].
    fn durability_health(&self) -> DurabilityHealth {
        DurabilityHealth::Healthy
    }
}

/// The Silo database: configuration, epoch subsystem, and table catalog.
///
/// A `Database` is shared by reference ([`Arc`]) between worker threads; each
/// worker registers itself with [`Database::register_worker`] and runs
/// transactions through the returned [`Worker`].
pub struct Database {
    config: SiloConfig,
    epochs: Arc<EpochManager>,
    advancer: parking_lot::Mutex<Option<EpochAdvancer>>,
    tables: RwLock<Vec<Arc<Table>>>,
    by_name: RwLock<HashMap<String, TableId>>,
    global_tid: GlobalTidGenerator,
    commit_hook: OnceLock<Arc<dyn CommitHook>>,
    history: OnceLock<Arc<HistoryRecorder>>,
    /// Where records come from under `+Allocator` (`per_worker_pool`);
    /// `None` leaves every record to the global allocator.
    records: Option<Arc<RecordSlab>>,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.tables.read().len())
            .field("epoch", &self.epochs.global_epoch())
            .finish_non_exhaustive()
    }
}

impl Database {
    /// Opens a new, empty in-memory database with the given configuration.
    pub fn open(config: SiloConfig) -> Arc<Database> {
        let epochs = EpochManager::new(config.epoch.clone());
        let advancer = if config.spawn_epoch_advancer {
            Some(EpochAdvancer::spawn(Arc::clone(&epochs)))
        } else {
            None
        };
        let records = config.per_worker_pool.then(Arc::default);
        Arc::new(Database {
            config,
            epochs,
            advancer: parking_lot::Mutex::new(advancer),
            tables: RwLock::new(Vec::new()),
            by_name: RwLock::new(HashMap::new()),
            global_tid: GlobalTidGenerator::new(),
            commit_hook: OnceLock::new(),
            history: OnceLock::new(),
            records,
        })
    }

    /// The engine configuration.
    pub fn config(&self) -> &SiloConfig {
        &self.config
    }

    /// The epoch subsystem.
    pub fn epochs(&self) -> &Arc<EpochManager> {
        &self.epochs
    }

    /// The record slab under `+Allocator`.
    pub(crate) fn record_slab(&self) -> Option<&Arc<RecordSlab>> {
        self.records.as_ref()
    }

    /// The shared TID counter used when `config.global_tid` is set.
    pub(crate) fn global_tid_generator(&self) -> &GlobalTidGenerator {
        &self.global_tid
    }

    /// Installs the commit hook (at most once, before workers start
    /// committing). Returns `Err` with the hook if one is already installed.
    pub fn set_commit_hook(&self, hook: Arc<dyn CommitHook>) -> Result<(), Arc<dyn CommitHook>> {
        self.commit_hook.set(hook)
    }

    /// The installed commit hook, if any.
    pub(crate) fn commit_hook(&self) -> Option<&Arc<dyn CommitHook>> {
        self.commit_hook.get()
    }

    /// Installs a history recorder (at most once, before workers register:
    /// only workers created *after* the install record). Each worker buffers
    /// its session locally and submits it to the recorder when dropped; see
    /// `silo_check::HistoryRecorder` for the collection side and
    /// `silo_check::check_serializability` for what the histories are for.
    ///
    /// Returns `Err` with the recorder if one is already installed.
    pub fn set_history_recorder(
        &self,
        recorder: Arc<HistoryRecorder>,
    ) -> Result<(), Arc<HistoryRecorder>> {
        self.history.set(recorder)
    }

    /// The installed history recorder, if any.
    pub fn history_recorder(&self) -> Option<&Arc<HistoryRecorder>> {
        self.history.get()
    }

    /// The durability subsystem's backpressure signal. A database without a
    /// commit hook is always [`DurabilityHealth::Healthy`] — it never
    /// promised durability in the first place.
    pub fn durability_health(&self) -> DurabilityHealth {
        self.commit_hook
            .get()
            .map_or(DurabilityHealth::Healthy, |h| h.durability_health())
    }

    /// Creates a new table, returning its id.
    pub fn create_table(&self, name: &str) -> Result<TableId, CatalogError> {
        let mut by_name = self.by_name.write();
        if by_name.contains_key(name) {
            return Err(CatalogError::TableExists(name.to_string()));
        }
        let mut tables = self.tables.write();
        let id = tables.len() as TableId;
        tables.push(Arc::new(Table {
            id,
            name: name.to_string(),
            tree: Tree::new(),
            records: self.records.clone(),
        }));
        by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Looks up a table by id.
    pub fn table(&self, id: TableId) -> Arc<Table> {
        Arc::clone(&self.tables.read()[id as usize])
    }

    /// Looks up a table by id, returning `None` for unknown ids.
    pub fn try_table(&self, id: TableId) -> Option<Arc<Table>> {
        self.tables.read().get(id as usize).cloned()
    }

    /// Looks up a table id by name.
    pub fn table_id(&self, name: &str) -> Result<TableId, CatalogError> {
        self.by_name
            .read()
            .get(name)
            .copied()
            .ok_or_else(|| CatalogError::NoSuchTable(name.to_string()))
    }

    /// All table ids currently in the catalog.
    pub fn table_ids(&self) -> Vec<TableId> {
        (0..self.tables.read().len() as TableId).collect()
    }

    /// Index statistics aggregated over every table (node counts per level,
    /// trie layers, splits, reader retries — see
    /// [`silo_index::IndexStats`]). Structure counts are approximate while
    /// writers are active.
    pub fn index_stats(&self) -> silo_index::IndexStats {
        let mut stats = silo_index::IndexStats::default();
        for table in self.tables.read().iter() {
            stats.merge(&table.tree().stats());
        }
        stats
    }

    /// Registers a new worker thread with the engine. Its [`Worker::id`] is
    /// its epoch slot: unique among the live workers, below
    /// [`crate::MAX_WORKERS`], and reused once the worker drops.
    ///
    /// # Panics
    ///
    /// If [`crate::MAX_WORKERS`] workers are already alive.
    pub fn register_worker(self: &Arc<Self>) -> Worker {
        Worker::new(Arc::clone(self))
    }

    /// Stops the background epoch advancer (if one is running). Called
    /// automatically on drop; exposed so benchmarks can quiesce the system.
    pub fn stop_epoch_advancer(&self) {
        let mut guard = self.advancer.lock();
        if let Some(adv) = guard.take() {
            adv.stop();
        }
    }
}

impl Drop for Database {
    fn drop(&mut self) {
        self.stop_epoch_advancer();
        // Free every record still referenced by the tables that came from
        // the global allocator. Slab records, pending garbage and pooled
        // records included, go back with the record slab's chunks once the
        // tables (and `records`) drop.
        let tables = self.tables.get_mut();
        for table in tables.iter() {
            // SAFETY: `&mut self` in Drop guarantees exclusive access; all
            // workers hold an `Arc<Database>`, so none can still be alive.
            unsafe { table.free_all_records() };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_lookup_tables() {
        let db = Database::open(SiloConfig::for_testing());
        let a = db.create_table("alpha").unwrap();
        let b = db.create_table("beta").unwrap();
        assert_ne!(a, b);
        assert_eq!(db.table_id("alpha").unwrap(), a);
        assert_eq!(db.table(b).name(), "beta");
        assert_eq!(db.table_ids().len(), 2);
        assert!(matches!(
            db.create_table("alpha"),
            Err(CatalogError::TableExists(_))
        ));
        assert!(matches!(
            db.table_id("gamma"),
            Err(CatalogError::NoSuchTable(_))
        ));
        assert!(db.try_table(99).is_none());
    }

    #[test]
    fn worker_registration_assigns_unique_ids() {
        let db = Database::open(SiloConfig::for_testing());
        let w1 = db.register_worker();
        let w2 = db.register_worker();
        assert_ne!(w1.id(), w2.id());
    }

    #[test]
    fn commit_hook_can_only_be_set_once() {
        struct NullHook;
        impl CommitHook for NullHook {
            fn on_commit(&self, _: usize, _: Tid, _: CommitWrites<'_>) {}
        }
        let db = Database::open(SiloConfig::for_testing());
        assert!(db.set_commit_hook(Arc::new(NullHook)).is_ok());
        assert!(db.set_commit_hook(Arc::new(NullHook)).is_err());
    }

    #[test]
    fn advancer_runs_when_configured() {
        let mut cfg = SiloConfig::for_testing();
        cfg.spawn_epoch_advancer = true;
        let db = Database::open(cfg);
        let e0 = db.epochs().global_epoch();
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(db.epochs().global_epoch() > e0);
        db.stop_epoch_advancer();
    }
}
