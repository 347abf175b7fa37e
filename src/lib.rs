//! # silo — a Rust reproduction of *Speedy Transactions in Multicore
//! In-Memory Databases* (Silo, SOSP 2013)
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`core`] (`silo-core`) — the engine: records, the epoch-based OCC
//!   commit protocol, tables, snapshots, garbage collection.
//! * [`index`] (`silo-index`) — the Masstree-inspired concurrent B+-tree.
//! * [`epoch`] (`silo-epoch`) — epochs and epoch-based reclamation.
//! * [`tid`] (`silo-tid`) — transaction ID words.
//! * [`log`] (`silo-log`) — durability: redo logging, group commit, recovery.
//! * [`check`] (`silo-check`) — history recording and the serializability
//!   checker.
//! * [`wl`] (`silo-wl`) — workloads (YCSB, TPC-C), baselines, the driver,
//!   and the history-recording scenario fuzzer.
//! * [`net`] (`silo-net`) — the network front-end: a server whose worker
//!   threads each poll their own connections, speaking a length-prefixed
//!   pipelined binary protocol, acking writes
//!   only once their epoch is durable.
//! * [`client`] (`silo-client`) — the blocking pipelined client for that
//!   protocol.
//!
//! The most commonly used types are re-exported at the crate root.
//!
//! ## One session vocabulary, embedded or networked
//!
//! The same verbs — `open_table`, `get`/`put`/`insert`/`delete`/`scan`, and
//! `transact` for multi-operation transactions — work in-process against a
//! [`Database`] and over the wire through a [`client::Session`], so an
//! application can start embedded and move behind a server without a
//! rewrite.
//!
//! Embedded:
//!
//! ```
//! use silo::{Database, SiloConfig};
//!
//! let db = Database::open(SiloConfig::for_testing());
//! let mut session = db.session();
//! let table = session.open_table("kv").unwrap();
//! session.put(table, b"hello", b"world").unwrap();
//! let (greeting, _tid) = session
//!     .transact(|txn| {
//!         let v = txn.read(table, b"hello")?;
//!         txn.write(table, b"seen", b"1")?;
//!         Ok(v)
//!     })
//!     .unwrap();
//! assert_eq!(greeting.as_deref(), Some(&b"world"[..]));
//! ```
//!
//! Networked — same verbs, now with pipelining and durable acks (writes are
//! acknowledged only after their epoch passes the group-commit watermark):
//!
//! ```no_run
//! use silo::client::Session;
//!
//! let mut session = Session::connect("127.0.0.1:6432").unwrap();
//! let table = session.open_table("kv").unwrap();
//! session.put(table, b"hello", b"world").unwrap();
//! let value = session.get(table, b"hello").unwrap();
//! assert_eq!(value.as_deref(), Some(&b"world"[..]));
//! ```
//!
//! Serving that client is a [`net::Server`] wrapped around the embedded
//! database:
//!
//! ```no_run
//! use silo::net::{Server, ServerConfig};
//! use silo::{Database, LogConfig, SiloConfig, SiloLogger};
//!
//! let db = Database::open(SiloConfig::default());
//! let logger = SiloLogger::install(LogConfig::to_directory("/var/lib/silo", 4), &db).unwrap();
//! let server = Server::start(
//!     db,
//!     Some(logger),
//!     ServerConfig::default().with_listen("127.0.0.1:6432").with_workers(4),
//! )
//! .unwrap();
//! println!("listening on {}", server.local_addr());
//! ```

#![warn(missing_docs)]

pub use silo_check as check;
pub use silo_client as client;
pub use silo_core as core;
pub use silo_epoch as epoch;
pub use silo_index as index;
pub use silo_log as log;
pub use silo_net as net;
pub use silo_tid as tid;
pub use silo_wl as wl;

pub use silo_core::{
    Abort, AbortReason, CommitHook, CommitWrite, CommitWrites, Database, DurabilityHealth,
    EpochConfig, Session, SiloConfig, SnapshotTxn, Table, TableId, Tid, TidWord, Txn, Worker,
    WorkerStats,
};
pub use silo_check::{
    check_serializability, CheckReport, HistoryRecorder, SessionHistory, Violation,
};
pub use silo_client::{
    ClientConfig, ClientError, ClientStats, Connection, ServerError, TxnBuilder,
};
pub use silo_log::{
    DurableWait, FaultKind, FaultPlan, FaultSite, LogConfig, LogMode, RecoveryError, SiloLogger,
    SinkError, SinkErrorKind,
};
pub use silo_net::{
    ErrorCode, HealthStatus, NetFaultKind, NetFaultPlan, NetFaultSite, Request, Response, Server,
    ServerConfig, ServerStats, FEATURE_REQUEST_TOKENS, PROTOCOL_VERSION, SUPPORTED_FEATURES,
};
