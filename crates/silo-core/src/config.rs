//! Engine configuration, including the factor-analysis knobs of paper §5.7.

use silo_epoch::EpochConfig;

/// Configuration of a [`crate::Database`].
///
/// The defaults correspond to "MemSilo" as evaluated in the paper: in-place
/// overwrites, snapshots, garbage collection and decentralized TIDs all
/// enabled. The individual knobs reproduce the configurations of the factor
/// analysis (Figure 11) and the `MemSilo+GlobalTID` variant (Figure 4).
///
/// The struct is `#[non_exhaustive]`: construct it with [`Default`] or one of
/// the named presets and refine it with the builder-style `with_*` methods,
/// so new knobs are never a breaking change for downstream code:
///
/// ```
/// use silo_core::SiloConfig;
///
/// let config = SiloConfig::default()
///     .with_spawn_epoch_advancer(false)
///     .with_gc(false);
/// assert!(!config.spawn_epoch_advancer && !config.enable_gc);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SiloConfig {
    /// Epoch subsystem configuration (epoch period, snapshot interval `k`).
    pub epoch: EpochConfig,
    /// Spawn the background epoch-advancer thread when the database opens.
    /// Tests that want deterministic epochs advance manually instead.
    pub spawn_epoch_advancer: bool,
    /// `+Overwrites`: modify record data in place when the new value fits and
    /// no snapshot needs the old version. Disabling this reproduces the
    /// "Simple"/"+Allocator" bars of Figure 11, where every write allocates a
    /// new record.
    pub overwrite_in_place: bool,
    /// `+NoSnapshots` (inverted): keep previous record versions so read-only
    /// snapshot transactions can run (§4.9). Disabling also disables the
    /// snapshot overwrite rule, so updates always overwrite when possible.
    pub enable_snapshots: bool,
    /// `+NoGC` (inverted): run the epoch-based garbage collector in workers
    /// between transactions (§4.8): one round at each worker's first
    /// transaction boundary in every new epoch. Disabling leaks superseded
    /// versions until the database is dropped.
    pub enable_gc: bool,
    /// `MemSilo+GlobalTID`: draw commit TIDs from a single shared atomic
    /// counter instead of the decentralized per-worker rule (§5.2).
    pub global_tid: bool,
    /// `+Allocator`: recycle record allocations through a per-worker,
    /// size-classed pool refilled by that worker's garbage collector. This is
    /// the laptop-scale stand-in for the paper's NUMA-aware superpage
    /// allocator (see DESIGN.md §4).
    pub per_worker_pool: bool,
}

impl Default for SiloConfig {
    fn default() -> Self {
        SiloConfig {
            epoch: EpochConfig::default(),
            spawn_epoch_advancer: true,
            overwrite_in_place: true,
            enable_snapshots: true,
            enable_gc: true,
            global_tid: false,
            per_worker_pool: true,
        }
    }
}

impl SiloConfig {
    /// A configuration suited to unit tests: fast epochs, no background
    /// advancer thread (tests advance epochs explicitly when needed).
    pub fn for_testing() -> Self {
        SiloConfig {
            epoch: EpochConfig {
                epoch_interval: std::time::Duration::from_millis(1),
                snapshot_interval_epochs: 5,
            },
            spawn_epoch_advancer: false,
            ..Default::default()
        }
    }

    /// The paper's "Simple" configuration from the Figure 11 factor analysis:
    /// no per-worker allocator pool and a new record allocation for every
    /// write.
    pub fn simple() -> Self {
        SiloConfig {
            overwrite_in_place: false,
            per_worker_pool: false,
            ..Default::default()
        }
    }

    /// Returns a copy with snapshots disabled (`+NoSnapshots`).
    pub fn without_snapshots(mut self) -> Self {
        self.enable_snapshots = false;
        self
    }

    /// Returns a copy with garbage collection disabled (`+NoGC`).
    pub fn without_gc(mut self) -> Self {
        self.enable_gc = false;
        self
    }

    /// Returns a copy using the centralized TID counter (`MemSilo+GlobalTID`).
    pub fn with_global_tid(mut self) -> Self {
        self.global_tid = true;
        self
    }

    /// Sets the epoch subsystem configuration (period, snapshot interval).
    pub fn with_epoch(mut self, epoch: EpochConfig) -> Self {
        self.epoch = epoch;
        self
    }

    /// Enables or disables the background epoch-advancer thread.
    pub fn with_spawn_epoch_advancer(mut self, spawn: bool) -> Self {
        self.spawn_epoch_advancer = spawn;
        self
    }

    /// Enables or disables in-place overwrites (`+Overwrites`).
    pub fn with_overwrite_in_place(mut self, enable: bool) -> Self {
        self.overwrite_in_place = enable;
        self
    }

    /// Enables or disables snapshot version retention (§4.9).
    pub fn with_snapshots(mut self, enable: bool) -> Self {
        self.enable_snapshots = enable;
        self
    }

    /// Enables or disables the epoch-based garbage collector (§4.8).
    pub fn with_gc(mut self, enable: bool) -> Self {
        self.enable_gc = enable;
        self
    }

    /// Enables or disables the per-worker allocation pool (`+Allocator`).
    pub fn with_per_worker_pool(mut self, enable: bool) -> Self {
        self.per_worker_pool = enable;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_memsilo() {
        let c = SiloConfig::default();
        assert!(c.overwrite_in_place);
        assert!(c.enable_snapshots);
        assert!(c.enable_gc);
        assert!(!c.global_tid);
        assert!(c.per_worker_pool);
    }

    #[test]
    fn builder_style_knobs() {
        let c = SiloConfig::default()
            .without_snapshots()
            .without_gc()
            .with_global_tid();
        assert!(!c.enable_snapshots);
        assert!(!c.enable_gc);
        assert!(c.global_tid);
    }

    #[test]
    fn simple_disables_allocator_and_overwrites() {
        let c = SiloConfig::simple();
        assert!(!c.overwrite_in_place);
        assert!(!c.per_worker_pool);
    }
}
