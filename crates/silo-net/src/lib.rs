//! # silo-net — the network front-end
//!
//! Serves a [`silo_core::Database`] over TCP with a simple length-prefixed,
//! pipelined binary protocol (see [`protocol`]) and a server whose worker
//! threads each poll their own connections (see [`server`]) and whose
//! durable write acknowledgements ride the engine's epoch group commit: a
//! client pipelines a burst of writes, the server executes them as
//! transactions, and one durable-epoch advance — one `fsync` — releases
//! every ack in the burst.
//!
//! The matching blocking client lives in the `silo-client` crate; both are
//! re-exported from the `silo` facade.
//!
//! ```no_run
//! use std::sync::Arc;
//! use silo_core::{Database, SiloConfig};
//! use silo_net::{Server, ServerConfig};
//!
//! let db = Database::open(SiloConfig::default());
//! let server = Server::start(Arc::clone(&db), None, ServerConfig::default()).unwrap();
//! println!("listening on {}", server.local_addr());
//! ```

#![warn(missing_docs)]

pub mod fault;
pub mod protocol;
pub mod server;

pub use fault::{FaultStream, NetFaultKind, NetFaultPlan, NetFaultSite};
pub use protocol::{
    ErrorCode, FrameError, HealthStatus, ProtocolError, Request, Response, TxnOp,
    DEFAULT_MAX_FRAME_BYTES, FEATURE_REQUEST_TOKENS, MAX_TXN_OPS, PROTOCOL_VERSION,
    SUPPORTED_FEATURES,
};
pub use server::{Server, ServerConfig, ServerStats};
