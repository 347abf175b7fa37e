//! Epoch subsystem for silo-rs (paper §4.1, §4.8, §4.9).
//!
//! Silo divides time into short *epochs*. Epochs are the backbone of three
//! otherwise hard problems:
//!
//! * **Serializable recovery** — epoch boundaries are consistent with the
//!   serial order, so whole epochs are the unit of logging and group commit
//!   (§4.10).
//! * **Garbage collection** — objects freed by a transaction are reclaimed
//!   only once no worker's local epoch could still reach them, an RCU-style
//!   scheme (§4.8).
//! * **Snapshots** — read-only transactions run against a consistent,
//!   slightly stale snapshot identified by a *snapshot epoch* (§4.9).
//!
//! The crate provides:
//!
//! * [`EpochManager`] — the global epoch `E`, the global snapshot epoch `SE`,
//!   per-worker local epochs `e_w` / `se_w`, and the reclamation-epoch
//!   computations.
//! * [`EpochAdvancer`] — the designated thread that periodically advances `E`
//!   (every 40 ms in the paper; configurable here), respecting the invariant
//!   `E − e_w ≤ 1` for every active worker.
//! * [`shared_write_audit`] — a test-only (debug-build) counter of writes to
//!   cross-thread shared memory, used to pin the paper's §3 rule that
//!   read-only transactions never write to shared memory.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod advancer;
mod manager;

#[path = "audit.rs"]
pub mod shared_write_audit;

pub use advancer::EpochAdvancer;
pub use manager::{
    AdvanceListener, EpochConfig, EpochManager, WorkerEpochHandle, MAX_WORKERS, QUIESCENT,
};

/// Computes the snapshot epoch `snap(e) = k * floor(e / k)` (paper §4.9).
///
/// `k` is the number of epochs per snapshot epoch (25 in the paper, i.e. a
/// new snapshot roughly once a second at 40 ms epochs).
pub fn snap(epoch: u64, k: u64) -> u64 {
    assert!(k > 0, "snapshot interval k must be positive");
    k * (epoch / k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snap_rounds_down_to_multiple() {
        assert_eq!(snap(0, 25), 0);
        assert_eq!(snap(24, 25), 0);
        assert_eq!(snap(25, 25), 25);
        assert_eq!(snap(26, 25), 25);
        assert_eq!(snap(50, 25), 50);
        assert_eq!(snap(74, 25), 50);
    }

    #[test]
    fn snap_with_k_one_is_identity() {
        for e in 0..100 {
            assert_eq!(snap(e, 1), e);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn snap_rejects_zero_k() {
        let _ = snap(10, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_snap_is_idempotent_and_bounded(e in 0u64..1_000_000, k in 1u64..1000) {
            let s = snap(e, k);
            prop_assert!(s <= e);
            prop_assert_eq!(s % k, 0);
            prop_assert_eq!(snap(s, k), s);
            prop_assert!(e - s < k);
        }

        #[test]
        fn prop_snap_is_monotone(a in 0u64..1_000_000, b in 0u64..1_000_000, k in 1u64..1000) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(snap(lo, k) <= snap(hi, k));
        }
    }
}
