//! # silo-core — the Silo storage engine
//!
//! A from-scratch Rust implementation of **Silo** (Tu, Zheng, Kohler, Liskov,
//! Madden: *Speedy Transactions in Multicore In-Memory Databases*, SOSP
//! 2013): a serializable in-memory database engine whose commit protocol is
//! based on optimistic concurrency control, performs **no shared-memory
//! writes for records that were only read**, assigns transaction IDs without
//! any centralized counter, and uses periodically-updated **epochs** for
//! serializable recovery, garbage collection and read-only snapshots.
//!
//! ## Quick start
//!
//! ```
//! use silo_core::{Database, SiloConfig};
//!
//! let db = Database::open(SiloConfig::for_testing());
//! let accounts = db.create_table("accounts").unwrap();
//! let mut worker = db.register_worker();
//!
//! // A read/write transaction.
//! let mut txn = worker.begin();
//! txn.write(accounts, b"alice", b"100").unwrap();
//! txn.write(accounts, b"bob", b"200").unwrap();
//! let tid = txn.commit().unwrap();
//! assert!(tid.epoch() >= 1);
//!
//! // Reads see committed data.
//! let mut txn = worker.begin();
//! assert_eq!(txn.read(accounts, b"alice").unwrap(), Some(b"100".to_vec()));
//! assert_eq!(txn.read(accounts, b"carol").unwrap(), None);
//! txn.commit().unwrap();
//! ```
//!
//! ## Crate layout
//!
//! | Module | Paper section | Contents |
//! |---|---|---|
//! | [`config`] | §5.2, §5.7 | [`SiloConfig`] and the factor-analysis knobs |
//! | [`record`] | §4.3, §4.5 | record layout, read/write protocols, version chains |
//! | [`database`] | §3, §4.7 | tables, catalog, commit hook for durability |
//! | [`worker`] | §4.1, §4.8 | per-thread worker state, epochs, GC, allocation pool |
//! | [`txn`] | §4.5–§4.6 | transactions: reads, scans, writes, phantom protection |
//! | [`commit`] | §4.4, Figure 2 | the three-phase OCC commit protocol, and abort |
//! | [`snapshot`] | §4.9 | never-aborting read-only snapshot transactions: reads, scans and the checkpoint walk over one validated version read |
//!
//! The index substrate lives in the `silo-index` crate, the epoch subsystem
//! in `silo-epoch`, TIDs in `silo-tid`, and durability in `silo-log`.

#![warn(missing_docs)]
// Raw key/value byte tuples are part of this crate's vocabulary; aliasing
// them away would obscure more than it clarifies.
#![allow(clippy::type_complexity)]

mod arena;
pub mod bulk;
pub mod commit;
pub mod config;
pub mod database;
pub mod error;
mod gc;
pub mod record;
pub mod session;
mod set;
pub mod snapshot;
pub mod stats;
pub mod txn;
pub mod worker;

pub use bulk::{bulk_load, TableLoad};
pub use config::SiloConfig;
pub use database::{
    CommitHook, CommitWrite, CommitWrites, Database, DurabilityHealth, Table, TableId,
};
pub use error::{Abort, AbortReason, CatalogError};
pub use silo_check::{check_serializability, CheckReport, HistoryRecorder, SessionHistory};
pub use silo_epoch::{AdvanceListener, EpochConfig, EpochManager, MAX_WORKERS};
pub use silo_index::{BulkLoadError, IndexStats};
pub use silo_tid::{Tid, TidWord};
pub use session::Session;
pub use snapshot::{SnapshotTxn, WalkPacer};
pub use stats::{AbortBreakdown, WorkerStats};
pub use txn::Txn;
pub use worker::Worker;

#[cfg(test)]
mod set_tests;
#[cfg(test)]
mod testkit;
/// Engine tests, one file per seam of the protocol. The files are spliced
/// into this one module, so a test's path stays `tests::<name>` whichever
/// file holds it; they share the imports below.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    include!("txn_tests.rs");
    include!("validation_tests.rs");
    include!("snapshot_tests.rs");
    include!("gc_tests.rs");
    include!("history_tests.rs");
    include!("audit_tests.rs");
    include!("concurrent_tests.rs");
    include!("context_reuse_tests.rs");
}
