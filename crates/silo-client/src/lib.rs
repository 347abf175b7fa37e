//! # silo-client — a blocking, pipelining client for the silo-net protocol
//!
//! Two layers:
//!
//! * [`Connection`] — one TCP connection speaking the length-prefixed frame
//!   protocol, with explicit **pipelining**: [`Connection::send`] queues a
//!   request without waiting, [`Connection::recv`] takes the next response
//!   (responses arrive in request order, so no ids are needed). Issue `N`,
//!   then drain `N` — the server executes the whole burst as batches and one
//!   group commit releases every write ack in it.
//! * [`Session`] — the same session vocabulary the embedded
//!   `silo_core::Session` API uses: `get`/`put`/`insert`/`delete`/`scan` as
//!   single-operation transactions plus [`Session::transact`] for atomic
//!   multi-operation transactions, each call synchronous (`send` + `flush` +
//!   `recv`).
//!
//! ```no_run
//! use silo_client::{Connection, Session};
//!
//! let mut session = Session::connect("127.0.0.1:4000").unwrap();
//! let accounts = session.open_table("accounts").unwrap();
//! session.put(accounts, b"alice", b"100").unwrap(); // acked once durable
//! assert_eq!(session.get(accounts, b"alice").unwrap(), Some(b"100".to_vec()));
//! ```
//!
//! # Failure handling
//!
//! Every [`Session`] opens its connection with a `HELLO` handshake that
//! negotiates *request tokens* under a lineage derived for the session (the
//! id the server files the session's token outcomes under). Every write the
//! session issues goes out wrapped in a fresh token, and the server keeps
//! recent outcomes per lineage, so a write whose ack was lost to a connection
//! reset is answered from that memory when it is re-issued instead of being
//! applied twice.
//!
//! * **Timeouts** — a 5 s connect timeout, a 30 s write timeout and the
//!   configurable [`ClientConfig::read_timeout`] bound every blocking call
//!   ([`ClientError::TimedOut`]).
//! * **Retries** — up to [`ClientConfig::retries`] times, a session retries
//!   `ServerBusy`, OCC `Aborted` outcomes and a dead transport (re-dialing
//!   it and re-issuing the request under the same token) after a jittered
//!   exponential backoff (2 ms doubling to 250 ms), and a
//!   `DurabilityDegraded` shed after probing [`Session::health`] for up to
//!   5 s until the server recovers. The default [`ClientConfig`] retries
//!   nothing: `ClientConfig::default().with_retries(8)` turns retries on.
//!
//! A server shedding load surfaces as a typed [`ClientError::Server`] whose
//! [`ErrorCode`] distinguishes `ServerBusy` (backlog — retry after backoff)
//! from `DurabilityDegraded` (the log can't back new acks — probe
//! [`Session::health`] and retry once healthy) from `Aborted` (OCC conflict —
//! retry the transaction).

#![warn(missing_docs)]

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use silo_net::fault::{xorshift, FaultStream, NetFaultPlan};
use silo_net::protocol::{
    self, FrameError, Request, Response, TxnOp, DEFAULT_MAX_FRAME_BYTES, FEATURE_REQUEST_TOKENS,
    PROTOCOL_VERSION,
};

pub use silo_net::protocol::{ErrorCode, HealthStatus, ProtocolError};

/// A typed error frame returned by the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerError {
    /// The error class (retryability is encoded here).
    pub code: ErrorCode,
    /// Human-readable detail from the server.
    pub detail: String,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

impl std::error::Error for ServerError {}

/// Everything that can go wrong on the client side.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (includes the server closing the connection
    /// mid-frame).
    Io(std::io::Error),
    /// The server sent a frame this client could not decode, or a response
    /// of an unexpected type for the request.
    Protocol(String),
    /// The connection was closed by the server while responses were still
    /// outstanding.
    Closed,
    /// The server answered with a typed error frame.
    Server(ServerError),
    /// A socket timeout expired.
    TimedOut,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(d) => write!(f, "protocol error: {d}"),
            ClientError::Closed => write!(f, "connection closed with responses outstanding"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::TimedOut => write!(f, "request timed out"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) {
            ClientError::TimedOut
        } else {
            ClientError::Io(e)
        }
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::from(e),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

impl ClientError {
    /// Whether this is a typed shed/abort the caller should retry (possibly
    /// after backoff or a health probe): `Aborted`, `ServerBusy`, or
    /// `DurabilityDegraded`.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ClientError::Server(ServerError {
                code: ErrorCode::Aborted | ErrorCode::ServerBusy | ErrorCode::DurabilityDegraded,
                ..
            })
        )
    }

    /// The typed server error code, if this is a server error.
    pub fn server_code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server(e) => Some(e.code),
            _ => None,
        }
    }

    /// Whether the transport (rather than the server's typed answer) failed:
    /// the connection is dead and only a reconnect can continue.
    fn is_transport(&self) -> bool {
        matches!(
            self,
            ClientError::Io(_)
                | ClientError::Protocol(_)
                | ClientError::Closed
                | ClientError::TimedOut
        )
    }
}

/// TCP connect timeout for every dial.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
/// Socket write timeout.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);
/// Backoff before a session's first retry; doubles per retry.
const RETRY_BACKOFF: Duration = Duration::from_millis(2);
/// Cap on a session's retry backoff.
const RETRY_BACKOFF_CAP: Duration = Duration::from_millis(250);
/// How long a session polls [`Session::health`] for `Healthy` before it
/// retries a `DurabilityDegraded` shed.
const HEALTH_WAIT: Duration = Duration::from_secs(5);

/// Configuration for [`Session::connect_with`] /
/// [`Connection::connect_with`].
///
/// The default retries nothing and sets generous socket timeouts.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ClientConfig {
    /// Socket read timeout: the longest a blocking receive may sit with no
    /// bytes arriving (`Duration::ZERO` disables).
    pub read_timeout: Duration,
    /// How many times a [`Session`] re-issues a request after a typed shed,
    /// an OCC abort (a `transact` retry re-runs the whole batch) or a dead
    /// transport (0 = every error surfaces on the first attempt).
    pub retries: u32,
    /// Wire fault-injection plan spliced into every connection this config
    /// opens (`None` in production: one branch per I/O call).
    pub fault: Option<Arc<NetFaultPlan>>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Duration::from_secs(30),
            retries: 0,
            fault: None,
        }
    }
}

impl ClientConfig {
    /// Sets the socket read timeout (`Duration::ZERO` disables).
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Sets how many times a session retries one request.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Splices a wire fault-injection plan into every connection.
    pub fn with_fault(mut self, plan: Arc<NetFaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }
}

/// Counters a [`Session`] keeps about its own recovery actions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Requests re-issued after a retryable outcome or transport failure.
    pub retries: u64,
    /// Connections re-dialed after the transport died.
    pub reconnects: u64,
}

/// One pipelined connection to a silo-net server.
///
/// [`Connection::send`] buffers a request and counts it as in-flight;
/// [`Connection::flush`] pushes the burst onto the wire; [`Connection::recv`]
/// reads the next response (flushing first if needed). [`Connection::call`]
/// is the synchronous send-flush-recv convenience. The server answers in
/// request order, so the `k`-th `recv` after a burst corresponds to the
/// `k`-th `send`.
pub struct Connection {
    reader: BufReader<FaultStream<TcpStream>>,
    writer: BufWriter<FaultStream<TcpStream>>,
    in_flight: usize,
    encode_buf: Vec<u8>,
    frame_buf: Vec<u8>,
}

impl Connection {
    /// Connects to a server with default settings (no timeouts beyond the
    /// 30 s socket defaults, no fault injection).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Connection, ClientError> {
        Connection::connect_with(addr, &ClientConfig::default())
    }

    /// Connects with the config's read timeout and (optionally) fault
    /// injection.
    /// Does *not* perform the handshake — [`Session`] owns that.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: &ClientConfig,
    ) -> Result<Connection, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        Connection::connect_addrs(&addrs, config)
    }

    fn connect_addrs(addrs: &[SocketAddr], config: &ClientConfig) -> Result<Connection, ClientError> {
        let mut last_err: Option<std::io::Error> = None;
        for addr in addrs {
            match TcpStream::connect_timeout(addr, CONNECT_TIMEOUT) {
                Ok(stream) => return Connection::from_stream(stream, config),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err
            .map(ClientError::from)
            .unwrap_or_else(|| ClientError::Protocol("no socket address resolved".to_string())))
    }

    fn from_stream(stream: TcpStream, config: &ClientConfig) -> Result<Connection, ClientError> {
        stream.set_nodelay(true).ok();
        if !config.read_timeout.is_zero() {
            stream.set_read_timeout(Some(config.read_timeout))?;
        }
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        let read_half = FaultStream::new(stream.try_clone()?, config.fault.clone())
            .with_socket(stream.try_clone()?);
        let write_half = FaultStream::new(stream.try_clone()?, config.fault.clone())
            .with_socket(stream)
            .with_shared_death(read_half.share_death());
        Ok(Connection {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(write_half),
            in_flight: 0,
            encode_buf: Vec::new(),
            frame_buf: Vec::new(),
        })
    }

    /// Performs the protocol handshake, requesting `features`; returns the
    /// granted feature bits.
    fn hello(&mut self, lineage: u64, features: u64) -> Result<u64, ClientError> {
        match self.call(&Request::Hello { version: PROTOCOL_VERSION, features, lineage })? {
            Response::HelloOk { version: _, features } => Ok(features),
            other => Err(unexpected("HelloOk", &other)),
        }
    }

    /// Queues one request into the connection's write buffer without
    /// flushing. Pair each `send` with a later [`Connection::recv`].
    pub fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        self.encode_buf.clear();
        protocol::encode_request(&mut self.encode_buf, req);
        protocol::write_frame(&mut self.writer, &self.encode_buf)?;
        self.in_flight += 1;
        Ok(())
    }

    /// Pushes every buffered request onto the wire.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Reads the next response, flushing buffered requests first. Returns
    /// [`ClientError::Closed`] if the server hung up with responses
    /// outstanding. A typed error frame is returned as `Ok(Response::Error)`
    /// — use [`Connection::recv_result`] to turn those into
    /// [`ClientError::Server`].
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        if self.in_flight == 0 {
            return Err(ClientError::Protocol("recv with no request in flight".to_string()));
        }
        self.flush()?;
        if !protocol::read_frame(&mut self.reader, &mut self.frame_buf, DEFAULT_MAX_FRAME_BYTES)? {
            return Err(ClientError::Closed);
        }
        self.in_flight -= 1;
        protocol::decode_response(&self.frame_buf)
            .map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Like [`Connection::recv`], but converts a typed error frame into
    /// [`ClientError::Server`].
    pub fn recv_result(&mut self) -> Result<Response, ClientError> {
        match self.recv()? {
            Response::Error { code, detail } => {
                Err(ClientError::Server(ServerError { code, detail }))
            }
            resp => Ok(resp),
        }
    }

    /// Synchronous request: send, flush, receive (typed errors become
    /// [`ClientError::Server`]).
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(req)?;
        self.recv_result()
    }

    /// Requests sent but not yet answered.
    pub fn pending(&self) -> usize {
        self.in_flight
    }
}

/// A durability health report from [`Session::health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthReport {
    /// The server's durability classification.
    pub health: HealthStatus,
    /// Epochs the durable epoch trails the global epoch by.
    pub lag_epochs: u64,
    /// The server's durable epoch `D`.
    pub durable_epoch: u64,
    /// The server's global epoch `E`.
    pub global_epoch: u64,
}

/// Key-value entries returned by [`Session::scan`], in key order.
pub type ScanEntries = Vec<(Vec<u8>, Vec<u8>)>;

/// Counts the sessions this process opened; each takes the next value.
static LINEAGE_COUNTER: AtomicU64 = AtomicU64::new(1);

/// A random value drawn once per process: `RandomState`'s keys, which the
/// standard library seeds from the OS, hashed with the wall clock. Two
/// processes that share a pid (two hosts, two pid namespaces) differ here.
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let mut hasher = RandomState::new().build_hasher();
        hasher.write_u128(SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos()));
        hasher.finish()
    })
}

/// The lineage of a process's `counter`-th session: distinct counters give
/// distinct lineages within a process, and never 0 (the server reads 0 as
/// "no lineage").
fn lineage(seed: u64, pid: u32, counter: u64) -> u64 {
    (seed ^ (u64::from(pid) << 32) ^ counter).max(1)
}

fn derive_lineage() -> u64 {
    let counter = LINEAGE_COUNTER.fetch_add(1, Ordering::Relaxed);
    lineage(process_seed(), std::process::id(), counter)
}

/// The remote counterpart of the embedded `silo_core::Session`: each method
/// is one transaction against the server, synchronous and in the same
/// vocabulary (`get`/`put`/`insert`/`delete`/`scan`/`transact`).
///
/// Every write carries a request token, so with [`ClientConfig::retries`]
/// set the session re-issues a write whose ack was lost without applying it
/// twice (see the crate docs).
///
/// For throughput, use [`Session::connection`]-level pipelining: issue a
/// burst of `send`s, then drain with `recv`.
pub struct Session {
    conn: Option<Connection>,
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    lineage: u64,
    next_token: u64,
    connected_once: bool,
    stats: ClientStats,
    /// xorshift64* state for backoff jitter.
    rng: u64,
}

impl Session {
    /// Connects a new session with the default config (no retries).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Session, ClientError> {
        Session::connect_with(addr, ClientConfig::default())
    }

    /// Connects a new session with an explicit [`ClientConfig`].
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Session, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(ClientError::Protocol("no socket address resolved".to_string()));
        }
        let lineage = derive_lineage();
        let mut session = Session {
            conn: None,
            addrs,
            lineage,
            next_token: 0,
            connected_once: false,
            stats: ClientStats::default(),
            rng: lineage | 0x9E37_79B9_7F4A_7C15,
            config,
        };
        session.redial()?;
        Ok(session)
    }

    /// The underlying connection, for explicit pipelining. Requests sent on
    /// it directly carry no request token.
    ///
    /// # Panics
    ///
    /// Panics if the connection previously died and has not been re-dialed
    /// by a [`Session`] verb since.
    pub fn connection(&mut self) -> &mut Connection {
        self.conn.as_mut().expect("session connection is down; issue a request to reconnect")
    }

    /// The session's recovery counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Whether the session holds a live connection that negotiated request
    /// tokens. Every dial negotiates them: a server that refuses fails it.
    pub fn tokens_negotiated(&self) -> bool {
        self.conn.is_some()
    }

    /// Resolves a table name to an id, creating the table if missing.
    pub fn open_table(&mut self, name: &str) -> Result<u32, ClientError> {
        match self.call(Request::OpenTable { name: name.to_string() })? {
            Response::TableId { id } => Ok(id),
            other => Err(unexpected("TableId", &other)),
        }
    }

    /// Reads one key (a single-operation transaction).
    pub fn get(&mut self, table: u32, key: &[u8]) -> Result<Option<Vec<u8>>, ClientError> {
        match self.call(Request::Get { table, key: key.to_vec() })? {
            Response::Value { value } => Ok(value),
            other => Err(unexpected("Value", &other)),
        }
    }

    /// Upserts one key. `Ok(())` means *durably committed* when the server
    /// runs with a durability subsystem.
    pub fn put(&mut self, table: u32, key: &[u8], value: &[u8]) -> Result<(), ClientError> {
        match self.call(Request::Put {
            table,
            key: key.to_vec(),
            value: value.to_vec(),
        })? {
            Response::Ok => Ok(()),
            other => Err(unexpected("Ok", &other)),
        }
    }

    /// Inserts one key; a duplicate key surfaces as a typed `Aborted` error.
    pub fn insert(&mut self, table: u32, key: &[u8], value: &[u8]) -> Result<(), ClientError> {
        match self.call(Request::Insert {
            table,
            key: key.to_vec(),
            value: value.to_vec(),
        })? {
            Response::Ok => Ok(()),
            other => Err(unexpected("Ok", &other)),
        }
    }

    /// Deletes one key (idempotent).
    pub fn delete(&mut self, table: u32, key: &[u8]) -> Result<(), ClientError> {
        match self.call(Request::Delete { table, key: key.to_vec() })? {
            Response::Ok => Ok(()),
            other => Err(unexpected("Ok", &other)),
        }
    }

    /// Range scan `[start, end)`, at most `limit` entries (`None` = all).
    pub fn scan(
        &mut self,
        table: u32,
        start: &[u8],
        end: Option<&[u8]>,
        limit: Option<u32>,
    ) -> Result<ScanEntries, ClientError> {
        match self.call(Request::Scan {
            table,
            start: start.to_vec(),
            end: end.map(<[u8]>::to_vec),
            limit: limit.unwrap_or(0),
        })? {
            Response::Entries { entries } => Ok(entries),
            other => Err(unexpected("Entries", &other)),
        }
    }

    /// Executes a multi-operation transaction atomically on the server and
    /// returns the values observed by its `get`s, in operation order. If the
    /// transaction wrote, success means the writes are durable.
    ///
    /// ```no_run
    /// # use silo_client::{Session, TxnBuilder};
    /// # let mut session = Session::connect("127.0.0.1:4000").unwrap();
    /// # let accounts = session.open_table("accounts").unwrap();
    /// let reads = session.transact(
    ///     TxnBuilder::new()
    ///         .get(accounts, b"alice")
    ///         .put(accounts, b"bob", b"250"),
    /// ).unwrap();
    /// let alice = reads[0].as_deref();
    /// # let _ = alice;
    /// ```
    pub fn transact(&mut self, txn: TxnBuilder) -> Result<Vec<Option<Vec<u8>>>, ClientError> {
        match self.call(Request::Txn { ops: txn.ops })? {
            Response::TxnOk { reads } => Ok(reads),
            other => Err(unexpected("TxnOk", &other)),
        }
    }

    /// Probes the server's durability health.
    pub fn health(&mut self) -> Result<HealthReport, ClientError> {
        match self.call(Request::Health)? {
            Response::Health { health, lag_epochs, durable_epoch, global_epoch } => {
                Ok(HealthReport { health, lag_epochs, durable_epoch, global_epoch })
            }
            other => Err(unexpected("Health", &other)),
        }
    }

    // -- the retry core -----------------------------------------------------

    /// Issues one request through the session's retry/reconnect machinery.
    /// A write is wrapped in a fresh request token first, so re-issuing it
    /// after a reconnect is answered from the server's token window rather
    /// than applied twice.
    fn call(&mut self, req: Request) -> Result<Response, ClientError> {
        let req = if req.is_write() {
            self.next_token += 1;
            Request::Tokenized { token: self.next_token, req: Box::new(req) }
        } else {
            req
        };
        let mut attempt: u32 = 0;
        let mut backoff = RETRY_BACKOFF;
        loop {
            let err = match self.try_call(&req) {
                Ok(resp) => return Ok(resp),
                Err(err) => err,
            };
            if !(err.is_transport() || err.is_retryable()) || attempt >= self.config.retries {
                return Err(err);
            }
            attempt += 1;
            self.stats.retries += 1;
            if err.server_code() == Some(ErrorCode::DurabilityDegraded) {
                self.await_health();
            } else {
                self.sleep_backoff(&mut backoff);
            }
        }
    }

    /// One attempt: ensure a live (handshaken) connection, then call. A
    /// transport failure drops the connection, so the next attempt re-dials.
    fn try_call(&mut self, req: &Request) -> Result<Response, ClientError> {
        if self.conn.is_none() {
            self.redial()?;
        }
        let conn = self.conn.as_mut().expect("redial populated the connection");
        conn.call(req).map_err(|e| {
            if e.is_transport() {
                self.conn = None;
            }
            e
        })
    }

    /// Dials (or re-dials) and negotiates request tokens under the session's
    /// lineage.
    fn redial(&mut self) -> Result<(), ClientError> {
        let mut conn = Connection::connect_addrs(&self.addrs, &self.config)?;
        if conn.hello(self.lineage, FEATURE_REQUEST_TOKENS)? & FEATURE_REQUEST_TOKENS == 0 {
            return Err(ClientError::Protocol("server refused request tokens".to_string()));
        }
        if self.connected_once {
            self.stats.reconnects += 1;
        }
        self.connected_once = true;
        self.conn = Some(conn);
        Ok(())
    }

    /// Polls the server's health until it reports `Healthy` or
    /// `HEALTH_WAIT` runs out (used before retrying a `DurabilityDegraded`
    /// shed).
    fn await_health(&mut self) {
        let deadline = Instant::now() + HEALTH_WAIT;
        loop {
            if let Ok(Response::Health { health: HealthStatus::Healthy, .. }) =
                self.try_call(&Request::Health)
            {
                return;
            }
            if Instant::now() >= deadline {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Sleeps a jittered `backoff` (within `[backoff/2, backoff]`, so
    /// synchronized clients do not retry in lockstep), then doubles it up
    /// to `RETRY_BACKOFF_CAP`.
    fn sleep_backoff(&mut self, backoff: &mut Duration) {
        let half = *backoff / 2;
        let r = xorshift(&mut self.rng);
        std::thread::sleep(half + Duration::from_micros(r % half.as_micros().max(1) as u64));
        *backoff = (*backoff * 2).min(RETRY_BACKOFF_CAP);
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted} response, got {got:?}"))
}

/// Builds the operation list for [`Session::transact`].
#[derive(Debug, Default, Clone)]
pub struct TxnBuilder {
    ops: Vec<TxnOp>,
}

impl TxnBuilder {
    /// An empty transaction.
    pub fn new() -> TxnBuilder {
        TxnBuilder::default()
    }

    /// Adds a read; its result lands in the corresponding slot of the
    /// vector [`Session::transact`] returns.
    pub fn get(mut self, table: u32, key: &[u8]) -> Self {
        self.ops.push(TxnOp::Get { table, key: key.to_vec() });
        self
    }

    /// Adds an upsert.
    pub fn put(mut self, table: u32, key: &[u8], value: &[u8]) -> Self {
        self.ops.push(TxnOp::Put { table, key: key.to_vec(), value: value.to_vec() });
        self
    }

    /// Adds an insert (duplicate key aborts the whole transaction).
    pub fn insert(mut self, table: u32, key: &[u8], value: &[u8]) -> Self {
        self.ops.push(TxnOp::Insert { table, key: key.to_vec(), value: value.to_vec() });
        self
    }

    /// Adds a delete.
    pub fn delete(mut self, table: u32, key: &[u8]) -> Self {
        self.ops.push(TxnOp::Delete { table, key: key.to_vec() });
        self
    }

    /// The operations queued so far.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no operations are queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processes_sharing_a_pid_derive_different_lineages() {
        // Two hosts (or pid namespaces) each run pid 4242 and open their
        // first session: only the process seed tells the two apart.
        let a = lineage(0x1234_5678_9ABC_DEF0, 4242, 1);
        let b = lineage(0x0FED_CBA9_8765_4321, 4242, 1);
        assert_ne!(a, b);
        assert!(a != 0 && b != 0, "lineages {a:#x} and {b:#x}");
        // A seed that cancels pid and counter out still yields a lineage.
        assert_eq!(lineage(4242 << 32 | 1, 4242, 1), 1);
        // Within one process, every session gets its own lineage.
        let (c, d) = (derive_lineage(), derive_lineage());
        assert_ne!(c, d);
        assert!(c != 0 && d != 0);
    }
}
