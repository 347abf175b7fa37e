//! The global epoch manager and per-worker epoch handles.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;

use crate::{shared_write_audit, snap};

/// Sentinel value stored in a worker's local epoch while the worker is
/// *quiescent* (not inside any transaction and holding no references to
/// shared objects). Quiescent workers do not hold back reclamation or epoch
/// advancement.
pub const QUIESCENT: u64 = u64::MAX;

/// Configuration for the epoch subsystem.
#[derive(Debug, Clone)]
pub struct EpochConfig {
    /// Period between global-epoch advances. The paper uses 40 ms; tests and
    /// benchmarks typically use 1 ms so that epoch-related behaviour shows up
    /// quickly.
    pub epoch_interval: Duration,
    /// Number of epochs per snapshot epoch (`k` in the paper, default 25).
    pub snapshot_interval_epochs: u64,
}

impl Default for EpochConfig {
    fn default() -> Self {
        EpochConfig {
            epoch_interval: Duration::from_millis(40),
            snapshot_interval_epochs: 25,
        }
    }
}

/// Told about every advance of the global epoch `E`, on the thread that
/// advanced it (the epoch advancer, or a test driving epochs by hand) and
/// after the new value is visible. The durability subsystem registers one to
/// start a group-commit round at the epoch boundary instead of keeping a
/// second clock; workers are never involved.
pub trait AdvanceListener: Send + Sync {
    /// `E` is now `epoch`. Runs on the advancing thread: keep it short.
    fn epoch_advanced(&self, epoch: u64);
}

/// Most workers one [`EpochManager`] keeps alive at once: the size of its
/// worker-slot table. A slot, and with it its index — the worker id — is
/// reused once its worker drops.
pub const MAX_WORKERS: usize = 256;

/// One worker's epoch slot: `(e_w, se_w)` plus the claim that makes the slot
/// index the worker's id. Only the owning worker writes the epochs; the
/// whole slot sits on its own cache line.
#[derive(Debug)]
struct WorkerSlot {
    /// Local epoch `e_w`, or [`QUIESCENT`].
    local_epoch: AtomicU64,
    /// Local snapshot epoch `se_w`, or [`QUIESCENT`].
    local_snapshot_epoch: AtomicU64,
    /// Whether a live [`WorkerEpochHandle`] owns the slot. A free slot is
    /// always quiescent: the handle quiesces before it releases the claim.
    claimed: AtomicBool,
}

/// The global epoch state: `E`, `SE`, and the worker-slot table.
///
/// A single `EpochManager` is shared (via `Arc`) by every worker thread, the
/// epoch-advancer thread, the garbage collector and the durability subsystem.
pub struct EpochManager {
    config: EpochConfig,
    /// The global epoch `E`. Read by every committing transaction, written
    /// only by the epoch advancer; padded to its own cache line so commits
    /// never false-share with unrelated state.
    global_epoch: CachePadded<AtomicU64>,
    /// The global snapshot epoch `SE = snap(E - k)`.
    global_snapshot_epoch: CachePadded<AtomicU64>,
    /// The worker slots. Registration claims the lowest free one, so live
    /// workers stay packed at the front.
    slots: [CachePadded<WorkerSlot>; MAX_WORKERS],
    /// One past the highest slot ever claimed. Scans — the advancer's
    /// min-epoch computation and every worker's GC-path reclamation-epoch
    /// reads — walk the slots below it with plain loads and touch no lock.
    high_water: AtomicUsize,
    /// Who to tell when `E` advances. Held weakly: a listener that has been
    /// dropped is pruned by the next advance.
    advance_listeners: Mutex<Vec<Weak<dyn AdvanceListener>>>,
}

impl std::fmt::Debug for EpochManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochManager")
            .field("global_epoch", &self.global_epoch())
            .field("global_snapshot_epoch", &self.global_snapshot_epoch())
            .field("workers", &self.worker_count())
            .field("high_water", &self.high_water())
            .finish_non_exhaustive()
    }
}

impl EpochManager {
    /// Creates a new epoch manager with the given configuration.
    ///
    /// The global epoch starts at 1 so that TID epoch 0 can be reserved for
    /// "never committed" placeholder records.
    pub fn new(config: EpochConfig) -> Arc<Self> {
        Arc::new(EpochManager {
            config,
            global_epoch: CachePadded::new(AtomicU64::new(1)),
            global_snapshot_epoch: CachePadded::new(AtomicU64::new(0)),
            slots: std::array::from_fn(|_| {
                CachePadded::new(WorkerSlot {
                    local_epoch: AtomicU64::new(QUIESCENT),
                    local_snapshot_epoch: AtomicU64::new(QUIESCENT),
                    claimed: AtomicBool::new(false),
                })
            }),
            high_water: AtomicUsize::new(0),
            advance_listeners: Mutex::new(Vec::new()),
        })
    }

    /// The configuration this manager was created with.
    pub fn config(&self) -> &EpochConfig {
        &self.config
    }

    /// Reads the global epoch `E`.
    pub fn global_epoch(&self) -> u64 {
        self.global_epoch.load(Ordering::Acquire)
    }

    /// Reads the global snapshot epoch `SE`.
    pub fn global_snapshot_epoch(&self) -> u64 {
        self.global_snapshot_epoch.load(Ordering::Acquire)
    }

    /// Registers a new worker and returns its epoch handle, whose id is the
    /// lowest slot no live worker holds: unique among the live workers of
    /// this manager, and below [`MAX_WORKERS`].
    ///
    /// The worker starts quiescent; it must call [`WorkerEpochHandle::refresh`]
    /// at the start of each transaction (or batch of transactions).
    ///
    /// # Panics
    ///
    /// If [`MAX_WORKERS`] workers are already alive.
    pub fn register_worker(self: &Arc<Self>) -> WorkerEpochHandle {
        shared_write_audit::note();
        // The claim's `Acquire` pairs with the `Release` that frees a slot in
        // `WorkerEpochHandle::drop`: a reused slot is seen quiescent.
        let id = self
            .slots
            .iter()
            .position(|slot| {
                !slot.claimed.load(Ordering::Relaxed)
                    && slot
                        .claimed
                        .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
            })
            .unwrap_or_else(|| panic!("more than MAX_WORKERS ({MAX_WORKERS}) workers alive"));
        // Pairs with the `Acquire` in `high_water`: a scan that reaches the
        // slot sees it claimed.
        self.high_water.fetch_max(id + 1, Ordering::Release);
        WorkerEpochHandle {
            manager: Arc::clone(self),
            id,
        }
    }

    /// The slots any worker has ever held; the rest were never claimed.
    fn used_slots(&self) -> &[CachePadded<WorkerSlot>] {
        &self.slots[..self.high_water()]
    }

    /// One past the highest worker id ever handed out. Registration reuses
    /// the lowest free slot, so this never exceeds the most workers that were
    /// alive (or registering) at once.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Acquire)
    }

    /// Number of live workers (including quiescent but not dropped ones).
    pub fn worker_count(&self) -> usize {
        self.used_slots()
            .iter()
            .filter(|slot| slot.claimed.load(Ordering::Acquire))
            .count()
    }

    /// Registers `listener` to be told about every later advance of `E`.
    pub fn add_advance_listener(&self, listener: Weak<dyn AdvanceListener>) {
        self.advance_listeners.lock().push(listener);
    }

    /// Tells the listeners that `E` is now `epoch`; the caller just made it so.
    fn notify_advance(&self, epoch: u64) {
        self.advance_listeners
            .lock()
            .retain(|listener| match listener.upgrade() {
                Some(listener) => {
                    listener.epoch_advanced(epoch);
                    true
                }
                None => false,
            });
    }

    /// The minimum local epoch over all non-quiescent workers, or
    /// `None` if every worker is quiescent (callers then use `E`).
    ///
    /// This is the floor under every commit still to come: a worker seen
    /// here at `e_w = x` commits its current transaction in an epoch `≥ x`,
    /// and a worker seen quiescent (or not yet registered) begins its next
    /// one at the `E` of that moment. A caller that read `E` *before* this
    /// call (with a `SeqCst` fence in between, to pair with the one in front
    /// of a commit's epoch read) may therefore take `min(E, floor)` as a
    /// lower bound on the epoch of any commit it has not yet observed.
    ///
    /// Read-only: called from every worker's GC path, so it must not touch a
    /// shared lock. A free slot reads as quiescent.
    pub fn min_worker_epoch(&self) -> Option<u64> {
        self.used_slots()
            .iter()
            .map(|slot| slot.local_epoch.load(Ordering::Acquire))
            .filter(|&e| e != QUIESCENT)
            .min()
    }

    /// The minimum local snapshot epoch over all non-quiescent workers, or
    /// `None` if every worker is quiescent. Read-only, like
    /// [`EpochManager::min_worker_epoch`].
    fn min_worker_snapshot_epoch(&self) -> Option<u64> {
        self.used_slots()
            .iter()
            .map(|slot| slot.local_snapshot_epoch.load(Ordering::Acquire))
            .filter(|&e| e != QUIESCENT)
            .min()
    }

    /// Attempts to advance the global epoch by one, maintaining the invariant
    /// `E − e_w ≤ 1` for every active worker (paper §4.1). If some worker is
    /// still in epoch `E − 1`, the advance is deferred and the current epoch
    /// is returned unchanged.
    ///
    /// Also refreshes the global snapshot epoch.
    ///
    /// Returns the (possibly unchanged) global epoch after the call.
    pub fn try_advance(&self) -> u64 {
        let e = self.global_epoch.load(Ordering::Acquire);
        let may_advance = match self.min_worker_epoch() {
            // Advancing to `e + 1` keeps `E − e_w ≤ 1` only if every active
            // worker has already refreshed to the current epoch.
            Some(min_ew) => min_ew >= e,
            // No worker is inside a transaction; always safe.
            None => true,
        };
        let new_e = if may_advance {
            shared_write_audit::note();
            // Only the advancer thread calls this concurrently with readers,
            // so a plain store (no CAS loop) is sufficient; `fetch_add` keeps
            // it correct even if multiple advancers are ever used.
            self.global_epoch.fetch_add(1, Ordering::AcqRel) + 1
        } else {
            e
        };
        self.refresh_snapshot_epoch(new_e);
        if may_advance {
            self.notify_advance(new_e);
        }
        new_e
    }

    fn refresh_snapshot_epoch(&self, e: u64) {
        let k = self.config.snapshot_interval_epochs;
        let se = if e > k { snap(e - k, k) } else { 0 };
        // Snapshot epochs only move forward.
        let cur = self.global_snapshot_epoch.load(Ordering::Acquire);
        if se > cur {
            shared_write_audit::note();
            self.global_snapshot_epoch.store(se, Ordering::Release);
        }
    }

    /// Fast-forwards the global epoch to at least `target` (and refreshes the
    /// snapshot epoch accordingly).
    ///
    /// This is the recovery hook: a freshly opened database starts at epoch 1,
    /// but the state recovered from a checkpoint + log tail carries TIDs from
    /// epochs up to the recovered durable horizon. Fast-forwarding past that
    /// horizon keeps post-recovery commit TIDs (and durable-epoch markers)
    /// strictly above every recovered TID, which both log truncation and
    /// TID-based replay conflict resolution rely on.
    ///
    /// Must only be called while no worker is inside a transaction (recovery
    /// runs before workers start); a jump would otherwise break the
    /// `E − e_w ≤ 1` invariant.
    pub fn advance_to(&self, target: u64) {
        debug_assert!(
            self.min_worker_epoch().is_none(),
            "advance_to with non-quiescent workers"
        );
        shared_write_audit::note();
        let before = self.global_epoch.fetch_max(target, Ordering::AcqRel);
        self.refresh_snapshot_epoch(self.global_epoch());
        if target > before {
            self.notify_advance(target);
        }
    }

    /// Advances the global epoch by (up to) `n` steps, used by tests and by
    /// deterministic benchmarks that do not run an advancer thread.
    pub fn advance_n(&self, n: u64) -> u64 {
        let mut e = self.global_epoch();
        for _ in 0..n {
            e = self.try_advance();
        }
        e
    }

    /// The *tree reclamation epoch*: garbage (tree nodes, record memory)
    /// registered with a reclamation epoch `≤` this value can be freed
    /// (paper §4.8: `min e_w − 1`).
    pub fn tree_reclamation_epoch(&self) -> u64 {
        let floor = match self.min_worker_epoch() {
            Some(min_ew) => min_ew,
            None => self.global_epoch(),
        };
        floor.saturating_sub(1)
    }

    /// The *snapshot reclamation epoch*: old record versions registered with
    /// a reclamation epoch `≤` this value can be freed (paper §4.9:
    /// `min se_w − 1`).
    pub fn snapshot_reclamation_epoch(&self) -> u64 {
        let floor = match self.min_worker_snapshot_epoch() {
            Some(min_sew) => min_sew,
            None => self.global_snapshot_epoch(),
        };
        floor.saturating_sub(1)
    }

    /// Computes `snap(e)` with this manager's configured `k`.
    pub fn snapshot_of(&self, epoch: u64) -> u64 {
        snap(epoch, self.config.snapshot_interval_epochs)
    }
}

/// A worker's handle onto the epoch subsystem.
///
/// The handle owns one slot of the manager's table, the worker's `e_w` /
/// `se_w`. Dropping the handle quiesces the slot and frees it for the next
/// registration, so a dropped worker holds back neither epoch advancement
/// nor reclamation.
#[derive(Debug)]
pub struct WorkerEpochHandle {
    manager: Arc<EpochManager>,
    id: usize,
}

impl WorkerEpochHandle {
    /// The worker's slot index: unique among the live workers of its
    /// manager, below [`MAX_WORKERS`], and reused after the handle drops.
    pub fn id(&self) -> usize {
        self.id
    }

    fn slot(&self) -> &WorkerSlot {
        &self.manager.slots[self.id]
    }

    /// The epoch manager this worker is registered with.
    pub fn manager(&self) -> &Arc<EpochManager> {
        &self.manager
    }

    /// Refreshes the worker's local epochs from the global values, as done at
    /// the start of every transaction: `e_w ← E`, `se_w ← SE`.
    ///
    /// The publish-then-verify loop closes the race where the advancer reads
    /// "no non-quiescent workers", advances `E`, and only then sees our stale
    /// `e_w`: we re-check `E` after publishing and retry until the published
    /// value matches, so from that moment on the `E − e_w ≤ 1` invariant is
    /// enforced by the advancer's own check.
    ///
    /// A slot that already holds the value is left alone: only this worker
    /// writes its slot, so the value was published — `SeqCst` — by an earlier
    /// refresh and has been visible to the advancer ever since. Between two
    /// epoch advances, then, beginning a transaction costs two loads of the
    /// worker's own line instead of two full-barrier stores.
    ///
    /// Returns `(e_w, se_w)`.
    ///
    /// Not a [`shared_write_audit`] site: the stores land in this worker's
    /// own cache-line-padded slot, the sanctioned per-worker pattern — no
    /// other thread's writes ever touch that line.
    pub fn refresh(&self) -> (u64, u64) {
        let slot = self.slot();
        loop {
            let e = self.manager.global_epoch();
            let se = self.manager.global_snapshot_epoch();
            if slot.local_epoch.load(Ordering::Relaxed) != e {
                slot.local_epoch.store(e, Ordering::SeqCst);
            }
            if slot.local_snapshot_epoch.load(Ordering::Relaxed) != se {
                slot.local_snapshot_epoch.store(se, Ordering::SeqCst);
            }
            if self.manager.global_epoch() == e {
                return (e, se);
            }
        }
    }

    /// Refreshes the worker's local epoch `e_w` from the global value while
    /// pinning its local snapshot epoch `se_w` to the (typically older)
    /// `snapshot_epoch` instead of the current `SE`.
    ///
    /// This is the checkpointer's hook: a long table walk over a fixed
    /// snapshot must keep refreshing `e_w` (so it never stalls global epoch
    /// advancement) while holding `se_w` at the snapshot it reads — the
    /// pinned `se_w` bounds [`EpochManager::snapshot_reclamation_epoch`], so
    /// every record version the snapshot can reach stays alive for the whole
    /// walk. `snapshot_epoch` must not exceed the current global `SE` (the
    /// versions of a *future* snapshot cannot be pinned retroactively).
    ///
    /// Returns the refreshed `e_w`.
    pub fn refresh_pinned(&self, snapshot_epoch: u64) -> u64 {
        let slot = self.slot();
        loop {
            let e = self.manager.global_epoch();
            slot.local_epoch.store(e, Ordering::SeqCst);
            slot.local_snapshot_epoch
                .store(snapshot_epoch, Ordering::SeqCst);
            if self.manager.global_epoch() == e {
                return e;
            }
        }
    }

    /// The worker's current local epoch `e_w` (or [`QUIESCENT`]).
    pub fn local_epoch(&self) -> u64 {
        self.slot().local_epoch.load(Ordering::Acquire)
    }

    /// The worker's current local snapshot epoch `se_w` (or [`QUIESCENT`]).
    pub fn local_snapshot_epoch(&self) -> u64 {
        self.slot().local_snapshot_epoch.load(Ordering::Acquire)
    }

    /// Marks the worker quiescent: it is outside any transaction and holds no
    /// references to shared objects, so it neither delays epoch advancement
    /// nor holds back reclamation.
    pub fn quiesce(&self) {
        let slot = self.slot();
        slot.local_epoch.store(QUIESCENT, Ordering::Release);
        slot.local_snapshot_epoch
            .store(QUIESCENT, Ordering::Release);
    }
}

impl Drop for WorkerEpochHandle {
    fn drop(&mut self) {
        self.quiesce();
        self.slot().claimed.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> Arc<EpochManager> {
        EpochManager::new(EpochConfig {
            epoch_interval: Duration::from_millis(1),
            snapshot_interval_epochs: 5,
        })
    }

    #[test]
    fn starts_at_epoch_one() {
        let m = mgr();
        assert_eq!(m.global_epoch(), 1);
        assert_eq!(m.global_snapshot_epoch(), 0);
    }

    #[test]
    fn advance_with_no_workers_is_unbounded() {
        let m = mgr();
        assert_eq!(m.advance_n(10), 11);
    }

    #[test]
    fn lagging_worker_blocks_advance() {
        let m = mgr();
        let w = m.register_worker();
        w.refresh(); // e_w = 1
        assert_eq!(m.try_advance(), 2); // E=2, e_w=1, E - e_w = 1: ok
        assert_eq!(m.try_advance(), 2); // would make E - e_w = 2: blocked
        assert_eq!(m.try_advance(), 2);
        w.refresh(); // e_w = 2
        assert_eq!(m.try_advance(), 3);
    }

    #[test]
    fn quiescent_worker_does_not_block_advance() {
        let m = mgr();
        let w = m.register_worker();
        w.refresh();
        assert_eq!(m.try_advance(), 2);
        w.quiesce();
        assert_eq!(m.advance_n(5), 7);
    }

    #[test]
    fn dropped_worker_does_not_block_advance() {
        let m = mgr();
        let w = m.register_worker();
        w.refresh();
        assert_eq!(m.try_advance(), 2);
        assert_eq!(m.try_advance(), 2);
        drop(w);
        assert_eq!(m.try_advance(), 3);
        assert_eq!(m.worker_count(), 0);
    }

    #[test]
    fn invariant_holds_under_many_advances() {
        let m = mgr();
        let w1 = m.register_worker();
        let w2 = m.register_worker();
        for _ in 0..100 {
            w1.refresh();
            if m.global_epoch() % 3 == 0 {
                w2.refresh();
            }
            let e = m.try_advance();
            for w in [&w1, &w2] {
                let ew = w.local_epoch();
                if ew != QUIESCENT {
                    assert!(e - ew <= 1, "invariant violated: E={e} e_w={ew}");
                }
            }
        }
    }

    #[test]
    fn snapshot_epoch_lags_by_k() {
        let m = mgr(); // k = 5
        m.advance_n(4); // E = 5
        assert_eq!(m.global_snapshot_epoch(), 0);
        m.advance_n(6); // E = 11 -> snap(11 - 5) = snap(6) = 5
        assert_eq!(m.global_snapshot_epoch(), 5);
        m.advance_n(10); // E = 21 -> snap(16) = 15
        assert_eq!(m.global_snapshot_epoch(), 15);
    }

    #[test]
    fn snapshot_epoch_is_monotone() {
        let m = mgr();
        let mut prev = m.global_snapshot_epoch();
        for _ in 0..200 {
            m.try_advance();
            let se = m.global_snapshot_epoch();
            assert!(se >= prev);
            prev = se;
        }
    }

    #[test]
    fn reclamation_epochs_respect_active_workers() {
        let m = mgr();
        let w1 = m.register_worker();
        let w2 = m.register_worker();
        w1.refresh();
        w2.refresh();
        m.advance_n(1); // E = 2 (both at 1)
                        // min e_w = 1 -> tree reclamation epoch 0
        assert_eq!(m.tree_reclamation_epoch(), 0);
        w1.refresh();
        w2.refresh(); // both at 2
        assert_eq!(m.tree_reclamation_epoch(), 1);
        // With all quiescent the global epoch bounds reclamation.
        w1.quiesce();
        w2.quiesce();
        assert_eq!(m.tree_reclamation_epoch(), m.global_epoch() - 1);
    }

    #[test]
    fn snapshot_reclamation_tracks_min_sew() {
        let m = mgr(); // k = 5
        let w1 = m.register_worker();
        let w2 = m.register_worker();
        m.advance_n(20); // both quiescent: E = 21, SE = snap(16) = 15
        w1.refresh();
        w2.refresh();
        assert_eq!(w1.local_snapshot_epoch(), 15);
        assert_eq!(m.snapshot_reclamation_epoch(), 14);
        // Advance while both keep refreshing; snapshot epochs follow E - k.
        for _ in 0..10 {
            w1.refresh();
            w2.refresh();
            m.try_advance();
        }
        assert_eq!(m.global_epoch(), 31);
        assert_eq!(m.global_snapshot_epoch(), 25);
        w1.refresh();
        assert_eq!(w1.local_snapshot_epoch(), 25);
        // The reclamation epoch is governed by the slowest worker's se_w.
        let min_sew = w1.local_snapshot_epoch().min(w2.local_snapshot_epoch());
        assert_eq!(m.snapshot_reclamation_epoch(), min_sew - 1);
    }

    #[test]
    fn min_worker_epoch_is_the_oldest_non_quiescent_worker() {
        let m = mgr();
        assert_eq!(m.min_worker_epoch(), None);
        let w1 = m.register_worker();
        let w2 = m.register_worker();
        assert_eq!(m.min_worker_epoch(), None); // registered quiescent
        w1.refresh();
        m.try_advance(); // E = 2
        w2.refresh();
        assert_eq!(m.min_worker_epoch(), Some(1));
        w1.quiesce();
        assert_eq!(m.min_worker_epoch(), Some(2));
        drop(w2);
        assert_eq!(m.min_worker_epoch(), None);
    }

    #[test]
    fn a_dropped_worker_frees_its_slot_for_the_next_registration() {
        let m = mgr();
        let (w0, w1, w2) = (
            m.register_worker(),
            m.register_worker(),
            m.register_worker(),
        );
        assert_eq!([w0.id(), w1.id(), w2.id()], [0, 1, 2]);
        w1.refresh();
        drop(w1);
        assert_eq!(m.worker_count(), 2);
        // The lowest free slot comes back quiescent; the table did not grow.
        let again = m.register_worker();
        assert_eq!(again.id(), 1);
        assert_eq!(again.local_epoch(), QUIESCENT);
        assert_eq!(m.min_worker_epoch(), None);
        assert_eq!(m.high_water(), 3);
        drop((w0, w2, again));
        assert_eq!(m.worker_count(), 0);
    }

    #[test]
    #[should_panic(expected = "MAX_WORKERS")]
    fn registering_past_max_workers_live_panics() {
        let m = mgr();
        let live: Vec<_> = (0..MAX_WORKERS).map(|_| m.register_worker()).collect();
        assert_eq!(live.last().unwrap().id(), MAX_WORKERS - 1);
        m.register_worker();
    }

    #[test]
    fn concurrent_churn_keeps_ids_distinct_and_the_table_small() {
        const THREADS: usize = 4;
        const CYCLES: usize = 2_000;
        let m = mgr();
        let live: Arc<Vec<AtomicBool>> =
            Arc::new((0..MAX_WORKERS).map(|_| AtomicBool::new(false)).collect());
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let m = Arc::clone(&m);
                let live = Arc::clone(&live);
                std::thread::spawn(move || {
                    for _ in 0..CYCLES {
                        let w = m.register_worker();
                        assert!(w.id() < MAX_WORKERS);
                        assert!(
                            !live[w.id()].swap(true, Ordering::AcqRel),
                            "id {} held twice",
                            w.id()
                        );
                        w.refresh();
                        live[w.id()].store(false, Ordering::Release);
                        drop(w);
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            m.try_advance();
            std::thread::yield_now();
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.worker_count(), 0);
        assert_eq!(m.min_worker_epoch(), None);
        // Each thread holds or is claiming at most one slot at a time.
        assert!(m.high_water() <= THREADS, "high water {}", m.high_water());
    }

    /// Records every epoch it is told about.
    #[derive(Default)]
    struct Recorder(Mutex<Vec<u64>>);

    impl AdvanceListener for Recorder {
        fn epoch_advanced(&self, epoch: u64) {
            self.0.lock().push(epoch);
        }
    }

    #[test]
    fn listeners_hear_every_advance_and_nothing_else() {
        let m = mgr();
        let recorder = Arc::new(Recorder::default());
        let listener: Arc<dyn AdvanceListener> = Arc::clone(&recorder) as _;
        m.add_advance_listener(Arc::downgrade(&listener));

        let w = m.register_worker();
        w.refresh(); // e_w = 1
        assert_eq!(m.try_advance(), 2);
        assert_eq!(m.try_advance(), 2); // deferred: no advance, no call
        w.quiesce();
        assert_eq!(m.advance_n(2), 4);
        m.advance_to(9);
        m.advance_to(5); // already past: no advance, no call
        assert_eq!(*recorder.0.lock(), vec![2, 3, 4, 9]);

        // A dropped listener is pruned by the next advance.
        drop(listener);
        drop(recorder);
        m.try_advance();
        assert!(m.advance_listeners.lock().is_empty());
    }

    #[test]
    fn refresh_returns_current_values() {
        let m = mgr();
        m.advance_n(30);
        let w = m.register_worker();
        let (e, se) = w.refresh();
        assert_eq!(e, m.global_epoch());
        assert_eq!(se, m.global_snapshot_epoch());
        assert_eq!(w.local_epoch(), e);
        assert_eq!(w.local_snapshot_epoch(), se);
    }

    #[test]
    fn concurrent_refresh_and_advance_preserve_invariant() {
        let m = mgr();
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let m = Arc::clone(&m);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let w = m.register_worker();
                while !stop.load(Ordering::Relaxed) {
                    let (ew, _) = w.refresh();
                    let e = m.global_epoch();
                    // E may have advanced at most once past our refresh.
                    assert!(e >= ew && e - ew <= 1, "E={e} e_w={ew}");
                    w.quiesce();
                }
            }));
        }
        for _ in 0..200 {
            m.try_advance();
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }
}
