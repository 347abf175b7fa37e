//! The designated epoch-advancer thread (paper §4.1).
//!
//! "A designated thread periodically advances E; other threads access E while
//! committing transactions." The advancer also keeps the global snapshot
//! epoch up to date. If a worker has fallen behind (its `e_w` is more than
//! one epoch old), the advance is deferred until the worker catches up, which
//! implements the paper's "the epoch-advancing thread delays its epoch
//! update" behaviour.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::EpochManager;

/// Handle to the background epoch-advancer thread.
///
/// Dropping the handle stops the thread and joins it.
#[derive(Debug)]
pub struct EpochAdvancer {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<u64>>,
}

impl EpochAdvancer {
    /// Spawns the advancer thread for `manager`, ticking at
    /// `manager.config().epoch_interval`.
    pub fn spawn(manager: Arc<EpochManager>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let interval = manager.config().epoch_interval;
        let handle = std::thread::Builder::new()
            .name("silo-epoch-advancer".to_string())
            .spawn(move || {
                let mut ticks: u64 = 0;
                while !stop2.load(Ordering::Acquire) {
                    std::thread::sleep(interval);
                    manager.try_advance();
                    ticks += 1;
                }
                ticks
            })
            .expect("failed to spawn epoch advancer thread");
        EpochAdvancer {
            stop,
            handle: Some(handle),
        }
    }

    /// Requests the advancer to stop and waits for it; returns the number of
    /// ticks it performed.
    pub fn stop(mut self) -> u64 {
        self.stop_inner()
    }

    fn stop_inner(&mut self) -> u64 {
        self.stop.store(true, Ordering::Release);
        match self.handle.take() {
            Some(h) => h.join().unwrap_or(0),
            None => 0,
        }
    }
}

impl Drop for EpochAdvancer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EpochConfig;
    use std::time::Duration;

    #[test]
    fn advancer_moves_epoch_forward() {
        let m = EpochManager::new(EpochConfig {
            epoch_interval: Duration::from_millis(1),
            snapshot_interval_epochs: 5,
        });
        let start = m.global_epoch();
        let adv = EpochAdvancer::spawn(Arc::clone(&m));
        std::thread::sleep(Duration::from_millis(50));
        let ticks = adv.stop();
        assert!(ticks > 0);
        assert!(m.global_epoch() > start, "epoch should have advanced");
    }

    #[test]
    fn advancer_respects_lagging_worker() {
        let m = EpochManager::new(EpochConfig {
            epoch_interval: Duration::from_millis(1),
            snapshot_interval_epochs: 5,
        });
        let w = m.register_worker();
        w.refresh();
        let e_at_refresh = w.local_epoch();
        let adv = EpochAdvancer::spawn(Arc::clone(&m));
        std::thread::sleep(Duration::from_millis(40));
        // The worker never refreshed again, so E may be at most one ahead.
        assert!(m.global_epoch() <= e_at_refresh + 1);
        drop(adv);
        drop(w);
    }

    #[test]
    fn drop_stops_the_thread() {
        let m = EpochManager::new(EpochConfig::default());
        let adv = EpochAdvancer::spawn(Arc::clone(&m));
        drop(adv); // must not hang
    }
}
