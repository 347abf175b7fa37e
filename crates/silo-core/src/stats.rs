//! Per-worker execution statistics.

use crate::error::AbortReason;

/// Counters maintained by each worker. Not shared: the driver aggregates
/// per-worker statistics after a run, so updating them is free of
/// cross-thread communication (in keeping with Silo's no-shared-writes
/// philosophy).
#[derive(Debug, Default, Clone)]
pub struct WorkerStats {
    /// Successfully committed transactions.
    pub commits: u64,
    /// Aborted transactions (all reasons).
    pub aborts: u64,
    /// Committed read-only snapshot transactions.
    pub snapshot_commits: u64,
    /// Aborts broken down by reason.
    pub abort_reasons: AbortBreakdown,
    /// Records reclaimed by this worker's garbage collector.
    pub records_reclaimed: u64,
    /// Collector rounds this worker ran: at most one per epoch from its
    /// transaction boundaries, plus every explicit `collect_garbage`.
    pub gc_rounds: u64,
    /// Record allocations served from the per-worker pool.
    pub pool_hits: u64,
    /// Record allocations that went to the global allocator.
    pub pool_misses: u64,
    /// Arena chunks the worker's transaction context allocated (each is one
    /// global-allocator hit; steady state stops adding to this).
    pub arena_chunk_allocs: u64,
    /// Number of in-place record overwrites performed in Phase 3.
    pub inplace_overwrites: u64,
    /// Number of new record versions installed in Phase 3.
    pub new_versions: u64,
}

/// Abort counts per [`AbortReason`].
#[derive(Debug, Default, Clone)]
pub struct AbortBreakdown {
    /// Phase 2 read-set validation failures.
    pub read_validation: u64,
    /// Phase 2 node-set validation failures.
    pub node_validation: u64,
    /// Inserts of already-present keys.
    pub duplicate_key: u64,
    /// Reads that never reached a stable latest version.
    pub unstable_read: u64,
    /// Node-set fix-up failures after the transaction's own inserts.
    pub node_set_fixup: u64,
    /// Application-requested aborts.
    pub user_requested: u64,
}

impl AbortBreakdown {
    /// Records one abort with the given reason.
    pub fn record(&mut self, reason: AbortReason) {
        match reason {
            AbortReason::ReadValidation => self.read_validation += 1,
            AbortReason::NodeValidation => self.node_validation += 1,
            AbortReason::DuplicateKey => self.duplicate_key += 1,
            AbortReason::UnstableRead => self.unstable_read += 1,
            AbortReason::NodeSetFixup => self.node_set_fixup += 1,
            AbortReason::UserRequested => self.user_requested += 1,
        }
    }

    /// Total aborts across all reasons.
    pub fn total(&self) -> u64 {
        self.read_validation
            + self.node_validation
            + self.duplicate_key
            + self.unstable_read
            + self.node_set_fixup
            + self.user_requested
    }
}

impl WorkerStats {
    /// Merges another worker's statistics into this one (driver aggregation).
    pub fn merge(&mut self, other: &WorkerStats) {
        self.commits += other.commits;
        self.aborts += other.aborts;
        self.snapshot_commits += other.snapshot_commits;
        self.records_reclaimed += other.records_reclaimed;
        self.gc_rounds += other.gc_rounds;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
        self.arena_chunk_allocs += other.arena_chunk_allocs;
        self.inplace_overwrites += other.inplace_overwrites;
        self.new_versions += other.new_versions;
        self.abort_reasons.read_validation += other.abort_reasons.read_validation;
        self.abort_reasons.node_validation += other.abort_reasons.node_validation;
        self.abort_reasons.duplicate_key += other.abort_reasons.duplicate_key;
        self.abort_reasons.unstable_read += other.abort_reasons.unstable_read;
        self.abort_reasons.node_set_fixup += other.abort_reasons.node_set_fixup;
        self.abort_reasons.user_requested += other.abort_reasons.user_requested;
    }

    /// Abort rate as a fraction of attempted transactions.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.commits + self.aborts;
        if attempts == 0 {
            0.0
        } else {
            self.aborts as f64 / attempts as f64
        }
    }

    /// Global-allocator hits per committed transaction: record allocations
    /// that missed the per-worker pool plus arena chunk allocations. Zero in
    /// steady state once pools and arenas are warm.
    pub fn allocs_per_txn(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            (self.pool_misses + self.arena_chunk_allocs) as f64 / self.commits as f64
        }
    }

    /// Aborted attempts per committed transaction.
    pub fn aborts_per_txn(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.aborts as f64 / self.commits as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals_match() {
        let mut b = AbortBreakdown::default();
        b.record(AbortReason::ReadValidation);
        b.record(AbortReason::ReadValidation);
        b.record(AbortReason::NodeValidation);
        b.record(AbortReason::DuplicateKey);
        assert_eq!(b.total(), 4);
        assert_eq!(b.read_validation, 2);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = WorkerStats {
            commits: 10,
            aborts: 2,
            ..Default::default()
        };
        let b = WorkerStats {
            commits: 5,
            aborts: 1,
            inplace_overwrites: 7,
            gc_rounds: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.commits, 15);
        assert_eq!(a.aborts, 3);
        assert_eq!(a.inplace_overwrites, 7);
        assert_eq!(a.gc_rounds, 4);
    }

    #[test]
    fn abort_rate_handles_zero_attempts() {
        let s = WorkerStats::default();
        assert_eq!(s.abort_rate(), 0.0);
        let s = WorkerStats {
            commits: 3,
            aborts: 1,
            ..Default::default()
        };
        assert!((s.abort_rate() - 0.25).abs() < 1e-9);
    }
}
