//! The server: a fixed set of worker threads, each owning one engine
//! `Session` and its share of the connections, riding the engine's epoch
//! group commit.
//!
//! # Architecture
//!
//! ```text
//!  worker 0: poll(wake, listener, its sockets)
//!              │ accept ──► keep connection `id` when id % workers == 0,
//!              │            else hand it to worker id % workers (wake byte)
//!  worker i: poll(wake, its sockets)
//!              │ read → decode frames → execute each on the worker's Session
//!              ▼
//!           per-connection out-queue, in request order
//!              │ a write's ack (and every reply behind it) waits here
//!              ▼ until its commit epoch is durable
//!           write the releasable prefix
//! ```
//!
//! As in Silo (§3), a worker runs each request it reads to completion: a
//! request never changes thread. A connection lives on one worker, so its
//! responses come back in request order — which is what makes
//! fire-N-drain-N pipelining work without request ids.
//!
//! # Durable acknowledgement
//!
//! A write's `Ok` frame waits in the connection's out-queue until the write's
//! commit epoch passes the logger's durable watermark. The server is a
//! durable listener ([`SiloLogger::add_durable_listener`]): each advance of
//! the durable epoch writes one byte to every worker's wake socket, and that
//! one wake releases *every* ack the group fsync covered — thousands of
//! pipelined connections amortize a single `fsync` exactly as §4.10 of the
//! paper intends. A worker quiesces before it blocks in `poll`, so it never
//! holds back the epoch its own parked acks wait for. If durability fails
//! while an ack is parked, the ack is rewritten into a typed
//! [`ErrorCode::DurabilityDegraded`] frame rather than sent as a false
//! positive.
//!
//! # Load shedding
//!
//! * **Backlog** — while a connection's out-queue holds `BACKLOG_LIMIT`
//!   (4096) replies, its new *writes* are answered with
//!   [`ErrorCode::ServerBusy`] without being executed (in order, like any
//!   other reply).
//! * **Durability degradation** — each poll round checks
//!   [`Database::durability_health`] once; while `Degraded`/`Failed`, writes
//!   are answered with [`ErrorCode::DurabilityDegraded`] instead of being
//!   executed. Reads keep flowing: the in-memory state is still consistent.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::raw::{c_int, c_short, c_ulong};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use silo_core::{AdvanceListener, Database, DurabilityHealth, Session};
use silo_log::{DurableWait, SiloLogger};

use crate::fault::{FaultStream, NetFaultPlan};
use crate::protocol::{
    self, ErrorCode, Request, Response, TxnOp, DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
    SUPPORTED_FEATURES,
};

/// Reply backlog bound per connection; writes arriving while its out-queue
/// holds this many replies are shed with `ServerBusy`.
const BACKLOG_LIMIT: usize = 4096;
/// How long pending reply bytes may wait for the socket to take any of them
/// before the connection is dropped; also bounds the shutdown flush against
/// a half-open peer that never reads.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);
/// How long worker 0 leaves the listener out of its poll set after a failed
/// `accept` (out of descriptors, say), instead of spinning on it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(2);
/// Bytes asked of a socket per `read` call.
const READ_CHUNK: usize = 64 << 10;
/// How many tokenized write outcomes the server remembers per connection
/// lineage for exactly-once replay (see
/// [`crate::protocol::FEATURE_REQUEST_TOKENS`]).
const TOKEN_WINDOW: usize = 128;

/// Configuration for [`Server::start`].
///
/// A frame whose announced payload exceeds [`DEFAULT_MAX_FRAME_BYTES`]
/// (16 MiB, the bound the client reads with) is answered with a `BadRequest`
/// error and its connection is closed: the stream can no longer be trusted
/// to be frame-aligned.
///
/// Non-exhaustive with builder-style `with_*` methods, so new server knobs
/// never break downstream constructors:
///
/// ```
/// use silo_net::ServerConfig;
///
/// let config = ServerConfig::default()
///     .with_workers(4)
///     .with_max_connections(256);
/// assert_eq!(config.workers, 4);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Address to listen on. Use port 0 to let the OS pick
    /// (see [`Server::local_addr`]).
    pub listen: String,
    /// Number of worker threads, each owning one engine `Worker` and its
    /// share of the connections. The server runs exactly this many threads.
    pub workers: usize,
    /// Maximum concurrent connections; connections beyond this are answered
    /// with a `ServerBusy` frame and dropped without being served.
    pub max_connections: usize,
    /// Per-frame read deadline: once a frame's first byte arrives, the rest
    /// must follow within this budget or the connection is dropped
    /// (slow-loris defense). `Duration::ZERO` disables it.
    pub read_timeout: Duration,
    /// Idle timeout: a connection with no frame activity for this long is
    /// closed. `Duration::ZERO` disables it.
    pub idle_timeout: Duration,
    /// Wire fault-injection plan installed on every accepted connection
    /// (`None` in production: the I/O path then costs one branch per call).
    pub fault: Option<Arc<NetFaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".to_string(),
            workers: 2,
            max_connections: 1024,
            read_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(300),
            fault: None,
        }
    }
}

impl ServerConfig {
    /// Sets the listen address (e.g. `"127.0.0.1:4000"`, port 0 = OS pick).
    pub fn with_listen(mut self, listen: impl Into<String>) -> Self {
        self.listen = listen.into();
        self
    }

    /// Sets the number of worker threads.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the maximum number of concurrent connections.
    pub fn with_max_connections(mut self, max: usize) -> Self {
        self.max_connections = max.max(1);
        self
    }

    /// Sets the per-frame read deadline (`Duration::ZERO` disables).
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Sets the idle-connection timeout (`Duration::ZERO` disables).
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Installs a wire fault-injection plan on every accepted connection.
    pub fn with_fault(mut self, plan: Arc<NetFaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }
}

/// The server's counters (see [`Server::stats`]). The live counters are this
/// struct under one lock.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Connections accepted and served.
    pub connections_accepted: u64,
    /// Connections dropped because `max_connections` was reached.
    pub connections_rejected: u64,
    /// Requests executed (including rejected/shed ones).
    pub requests: u64,
    /// Frames that failed to decode, plus torn/oversized streams.
    pub protocol_errors: u64,
    /// Transactions committed on behalf of clients.
    pub txns_committed: u64,
    /// Transactions aborted (after retries, where applicable).
    pub txns_aborted: u64,
    /// Writes durably acknowledged (an `Ok` frame released after its epoch
    /// became durable).
    pub writes_acked: u64,
    /// Writes shed with `ServerBusy` (reply backlog).
    pub writes_shed_busy: u64,
    /// Writes shed with `DurabilityDegraded` (health-based, including acks
    /// rewritten after durability failed).
    pub writes_shed_degraded: u64,
    /// Connections that ended on a transport error (reset, broken pipe,
    /// torn stream — a peer that died rather than hung up cleanly).
    pub connections_reset: u64,
    /// Connections that ended with a clean end-of-stream.
    pub disconnects: u64,
    /// Connections dropped because a frame missed its read deadline
    /// (slow-loris / stalled peer).
    pub read_timeouts: u64,
    /// Connections closed for exceeding the idle timeout.
    pub idle_closed: u64,
    /// Tokenized writes answered from the replay window instead of being
    /// re-applied.
    pub token_replays: u64,
}

/// A reply in a connection's out-queue, or the remembered outcome of a
/// tokenized write. `durable_epoch > 0` holds it — and every reply behind
/// it — until that epoch is durable.
#[derive(Clone)]
struct Outgoing {
    durable_epoch: u64,
    resp: Response,
}

/// A bounded FIFO of tokenized-write outcomes for one connection lineage.
/// Replaying a remembered token returns the stored outcome instead of
/// re-applying the write — the exactly-once half of reconnect safety.
#[derive(Default)]
struct TokenWindow {
    order: VecDeque<u64>,
    acks: HashMap<u64, Outgoing>,
}

impl TokenWindow {
    fn lookup(&self, token: u64) -> Option<Outgoing> {
        self.acks.get(&token).cloned()
    }

    fn record(&mut self, token: u64, outcome: Outgoing) {
        if self.acks.contains_key(&token) {
            return;
        }
        if self.order.len() >= TOKEN_WINDOW {
            if let Some(evicted) = self.order.pop_front() {
                self.acks.remove(&evicted);
            }
        }
        self.order.push_back(token);
        self.acks.insert(token, outcome);
    }
}

/// Cap on remembered lineages; beyond it the oldest-registered lineage is
/// evicted (a reconnect after eviction simply loses replay protection and
/// surfaces retried tokens as fresh writes — bounded memory wins).
const MAX_LINEAGES: usize = 1024;

#[derive(Default)]
struct LineageTable {
    map: HashMap<u64, Arc<Mutex<TokenWindow>>>,
    order: VecDeque<u64>,
}

impl LineageTable {
    fn acquire(&mut self, lineage: u64) -> Arc<Mutex<TokenWindow>> {
        if let Some(w) = self.map.get(&lineage) {
            return Arc::clone(w);
        }
        if self.map.len() >= MAX_LINEAGES {
            if let Some(evicted) = self.order.pop_front() {
                self.map.remove(&evicted);
            }
        }
        let w = Arc::new(Mutex::new(TokenWindow::default()));
        self.map.insert(lineage, Arc::clone(&w));
        self.order.push_back(lineage);
        w
    }

    fn get(&self, lineage: u64) -> Option<Arc<Mutex<TokenWindow>>> {
        self.map.get(&lineage).map(Arc::clone)
    }
}

struct Shared {
    db: Arc<Database>,
    logger: Option<Arc<SiloLogger>>,
    config: ServerConfig,
    stats: Mutex<ServerStats>,
    stop: AtomicBool,
    /// The write ends of the workers' wake sockets (non-blocking).
    wakers: Vec<UnixStream>,
    /// Connections worker 0 accepted for each worker, adopted on its next
    /// wake.
    arrivals: Vec<Mutex<Vec<Conn>>>,
    lineages: Mutex<LineageTable>,
    active_conns: AtomicUsize,
}

impl Shared {
    /// The live counters, locked.
    fn stats(&self) -> MutexGuard<'_, ServerStats> {
        self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Makes worker `index`'s `poll` return. A socket too full to take the
    /// byte already holds a wake the worker has not consumed.
    fn wake(&self, index: usize) {
        let _ = (&self.wakers[index]).write(&[1]);
    }
}

/// Registered with the logger: a durable-epoch advance, a logger failure or
/// a logger shutdown may release parked acks on any worker.
impl AdvanceListener for Shared {
    fn epoch_advanced(&self, _durable_epoch: u64) {
        for index in 0..self.wakers.len() {
            self.wake(index);
        }
    }
}

/// A running network front-end over a [`Database`].
///
/// Start it with [`Server::start`], connect with `silo-client`, and stop it
/// with [`Server::shutdown`] (also invoked on drop). Shut the server down
/// *before* the logger: in-flight durable waits resolve against a live
/// logger, while a stopped one fails them (acks are then rewritten as
/// `DurabilityDegraded`, never silently dropped).
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listen address and spawns the worker threads.
    ///
    /// `logger` should be the [`SiloLogger`] installed on `db` when the
    /// server is to acknowledge durable writes; pass `None` for a purely
    /// in-memory server (writes are acked on commit).
    pub fn start(
        db: Arc<Database>,
        logger: Option<Arc<SiloLogger>>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.listen)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let workers = config.workers.max(1);
        let mut wakers = Vec::with_capacity(workers);
        let mut wake_ends = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (waker, wake) = UnixStream::pair()?;
            waker.set_nonblocking(true)?;
            wake.set_nonblocking(true)?;
            wakers.push(waker);
            wake_ends.push(wake);
        }
        let shared = Arc::new(Shared {
            db,
            logger,
            config,
            stats: Mutex::default(),
            stop: AtomicBool::new(false),
            wakers,
            arrivals: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
            lineages: Mutex::new(LineageTable::default()),
            active_conns: AtomicUsize::new(0),
        });
        if let Some(logger) = &shared.logger {
            let listener: Arc<dyn AdvanceListener> = Arc::clone(&shared) as _;
            logger.add_durable_listener(Arc::downgrade(&listener));
        }

        let mut listener = Some(listener);
        let workers = wake_ends
            .into_iter()
            .enumerate()
            .map(|(i, wake)| {
                let shared = Arc::clone(&shared);
                let listener = listener.take();
                std::thread::Builder::new()
                    .name(format!("silo-net-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i, wake, listener))
                    .expect("spawn server worker")
            })
            .collect();

        Ok(Server { shared, local_addr, workers })
    }

    /// The bound listen address (resolves port 0 to the OS-picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the server's counters.
    pub fn stats(&self) -> ServerStats {
        *self.shared.stats()
    }

    /// Stops accepting, answers the requests already received, resolves
    /// every parked durable ack (sent or rewritten as an error), flushes,
    /// closes every connection and joins the workers. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        for index in 0..self.shared.wakers.len() {
            self.shared.wake(index);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Hand-offs that raced a worker's exit: close them unserved.
        for arrivals in &self.shared.arrivals {
            arrivals.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;
const POLLERR: c_short = 0x8;
const POLLHUP: c_short = 0x10;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

fn pollfd(fd: RawFd, events: c_short) -> PollFd {
    PollFd { fd, events, revents: 0 }
}

/// Blocks until one of `fds` is ready or `timeout` passes (`None`: no
/// timeout); readiness lands in each entry's `revents`. An interrupted call
/// leaves every `revents` zero, which callers treat as a timeout.
fn wait_ready(fds: &mut [PollFd], timeout: Option<Duration>) {
    // Rounded up: a deadline is due when `poll` returns, not a moment after.
    let ms =
        timeout.map_or(-1, |t| t.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int);
    // SAFETY: `fds` is an exclusively borrowed array of `fds.len()` `pollfd`
    // structs, valid for the whole call; the kernel writes only their
    // `revents` fields.
    unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
}

/// One client connection, owned by one worker.
struct Conn {
    stream: FaultStream<TcpStream>,
    /// Bytes read but not yet decoded: a partial frame, between rounds.
    rbuf: Vec<u8>,
    /// Replies in request order, not yet released to `wbuf`.
    out: VecDeque<Outgoing>,
    /// Encoded replies the socket has not taken yet.
    wbuf: Vec<u8>,
    /// The lineage from the `Hello` handshake (0 until a handshake
    /// negotiates request tokens). Keys the token-replay window.
    lineage: u64,
    /// False once the connection will read no more (the peer hung up, the
    /// stream lost its framing, a read deadline passed, shutdown); it closes
    /// once its replies are written.
    reading: bool,
    /// Set on a transport failure: the connection closes at once.
    dead: bool,
    /// When the first byte of the partial frame in `rbuf` arrived.
    frame_start: Option<Instant>,
    /// When the last complete frame arrived (or the connection was accepted).
    last_frame: Instant,
    /// Since when `wbuf` has been waiting for the socket to take a byte.
    write_stalled: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, fault: Option<Arc<NetFaultPlan>>) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true).ok();
        // A killing fault shuts the socket down, so the peer sees it too.
        let socket = fault.as_ref().map(|_| stream.try_clone()).transpose()?;
        let mut stream = FaultStream::new(stream, fault);
        if let Some(socket) = socket {
            stream = stream.with_socket(socket);
        }
        Ok(Conn {
            stream,
            rbuf: Vec::new(),
            out: VecDeque::new(),
            wbuf: Vec::new(),
            lineage: 0,
            reading: true,
            dead: false,
            frame_start: None,
            last_frame: Instant::now(),
            write_stalled: None,
        })
    }

    /// The read deadline in force, and whether it is a frame's (else the
    /// idle budget's).
    fn read_deadline(&self, config: &ServerConfig) -> Option<(Instant, bool)> {
        let (since, budget) = match self.frame_start {
            Some(start) => (start, config.read_timeout),
            None => (self.last_frame, config.idle_timeout),
        };
        (self.reading && !budget.is_zero()).then(|| (since + budget, self.frame_start.is_some()))
    }

    fn push(&mut self, shared: &Shared, out: Outgoing) {
        shared.stats().requests += 1;
        self.out.push_back(out);
    }

    /// Answers once and reads no more: the stream is no longer frame-aligned.
    fn refuse(&mut self, shared: &Shared, detail: String) {
        self.push(shared, reply_err(ErrorCode::BadRequest, detail));
        self.reading = false;
    }

    /// Drops the connection on a transport failure, counting it as a reset
    /// unless it had already ended its reading some other way.
    fn kill(&mut self, shared: &Shared) {
        if self.reading {
            shared.stats().connections_reset += 1;
        }
        self.reading = false;
        self.dead = true;
    }

    /// Reads what the socket holds and serves every complete frame in it.
    fn read_and_serve(
        &mut self,
        shared: &Shared,
        session: &mut Session,
        health: DurabilityHealth,
        scratch: &mut [u8],
        now: Instant,
    ) {
        let mut eof = false;
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&scratch[..n]);
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => return self.kill(shared),
            }
        }

        let mut pos = 0;
        while self.reading {
            let (payload, used) =
                match protocol::split_frame(&self.rbuf[pos..], DEFAULT_MAX_FRAME_BYTES) {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(oversized) => {
                        shared.stats().protocol_errors += 1;
                        self.refuse(shared, oversized.to_string());
                        break;
                    }
                };
            let decoded = protocol::decode_request(payload);
            pos += used;
            self.last_frame = now;
            self.frame_start = None;
            let out = match decoded {
                Ok(req) if req.is_write() && self.out.len() >= BACKLOG_LIMIT => {
                    shared.stats().writes_shed_busy += 1;
                    reply_err(ErrorCode::ServerBusy, "reply backlog over its limit".to_string())
                }
                Ok(req) => handle_request(shared, session, &mut self.lineage, req, health),
                // Framing is still intact after a payload-level decode error,
                // so answer and keep the connection.
                Err(e) => {
                    shared.stats().protocol_errors += 1;
                    reply_err(ErrorCode::BadRequest, e.to_string())
                }
            };
            self.push(shared, out);
        }
        self.rbuf.drain(..pos);
        if self.rbuf.is_empty() {
            self.frame_start = None;
        } else if self.frame_start.is_none() {
            self.frame_start = Some(now);
        }
        if eof && self.reading {
            self.reading = false;
            if self.rbuf.is_empty() {
                shared.stats().disconnects += 1;
            } else {
                // A crashed peer: nothing sensible to answer.
                let mut stats = shared.stats();
                stats.protocol_errors += 1;
                stats.connections_reset += 1;
            }
        }
    }

    /// Ends reading once a read deadline has passed.
    fn expire_reads(&mut self, shared: &Shared, now: Instant) {
        match self.read_deadline(&shared.config) {
            Some((at, true)) if now >= at => {
                shared.stats().read_timeouts += 1;
                self.refuse(shared, "frame read deadline exceeded".to_string());
            }
            Some((at, false)) if now >= at => {
                shared.stats().idle_closed += 1;
                self.reading = false;
            }
            _ => {}
        }
    }

    /// Moves the releasable prefix of the out-queue — every reply up to the
    /// first write whose epoch is not durable yet — to the socket.
    fn write(&mut self, shared: &Shared, payload: &mut Vec<u8>, now: Instant) {
        while let Some(next) = self.out.front() {
            let ack = match &shared.logger {
                Some(logger) if next.durable_epoch > 0 => {
                    Some(logger.wait_for_durable(next.durable_epoch, Duration::ZERO))
                }
                _ => None,
            };
            if ack == Some(DurableWait::Timeout) {
                break;
            }
            let mut resp = self.out.pop_front().expect("a reply is queued").resp;
            match ack {
                Some(DurableWait::Durable) => shared.stats().writes_acked += 1,
                Some(_) => {
                    // Never send a false ack: the write committed in memory
                    // but its durability can no longer be guaranteed.
                    shared.stats().writes_shed_degraded += 1;
                    resp = Response::Error {
                        code: ErrorCode::DurabilityDegraded,
                        detail: "durability failed before the write's epoch became durable"
                            .to_string(),
                    };
                }
                None => {}
            }
            payload.clear();
            protocol::encode_response(payload, &resp);
            if protocol::write_frame(&mut self.wbuf, payload).is_err() {
                return self.kill(shared);
            }
        }
        let mut written = 0;
        while written < self.wbuf.len() {
            match self.stream.write(&self.wbuf[written..]) {
                Ok(0) => return self.kill(shared),
                Ok(n) => {
                    written += n;
                    self.write_stalled = None;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.write_stalled.get_or_insert(now);
                    break;
                }
                Err(_) => return self.kill(shared),
            }
        }
        self.wbuf.drain(..written);
    }

    fn finished(&self, now: Instant) -> bool {
        self.dead
            || self.write_stalled.is_some_and(|since| now >= since + WRITE_TIMEOUT)
            || (!self.reading && self.out.is_empty() && self.wbuf.is_empty())
    }
}

/// Answers an over-limit connection with one typed `ServerBusy` frame — a
/// fresh socket takes it in one non-blocking write — before dropping it, so
/// the client can back off instead of guessing why it was reset.
fn reject_connection(stream: TcpStream) {
    let detail = "connection limit reached".to_string();
    let (mut payload, mut frame) = (Vec::new(), Vec::new());
    protocol::encode_response(
        &mut payload,
        &Response::Error { code: ErrorCode::ServerBusy, detail },
    );
    protocol::write_frame(&mut frame, &payload).expect("a short reply fits one frame");
    if stream.set_nonblocking(true).is_ok() {
        let _ = (&stream).write(&frame);
    }
}

/// Worker 0's accept loop: admits what the listener holds, keeping its own
/// share and handing the rest out. Returns when to poll the listener again
/// after a failed `accept`.
fn accept_all(
    shared: &Shared,
    listener: &TcpListener,
    next_id: &mut u64,
    conns: &mut Vec<Conn>,
    now: Instant,
) -> Option<Instant> {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return None,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Some(now + ACCEPT_BACKOFF),
        };
        if shared.active_conns.load(Ordering::Acquire) >= shared.config.max_connections {
            shared.stats().connections_rejected += 1;
            reject_connection(stream);
            continue;
        }
        let Ok(conn) = Conn::new(stream, shared.config.fault.clone()) else {
            // Accepted but could not be set up: nothing to do but drop it.
            shared.stats().connections_rejected += 1;
            continue;
        };
        shared.stats().connections_accepted += 1;
        shared.active_conns.fetch_add(1, Ordering::AcqRel);
        let owner = (*next_id % shared.wakers.len() as u64) as usize;
        *next_id += 1;
        if owner == 0 {
            conns.push(conn);
        } else {
            shared.arrivals[owner].lock().unwrap_or_else(|e| e.into_inner()).push(conn);
            shared.wake(owner);
        }
    }
}

fn worker_loop(
    shared: &Shared,
    index: usize,
    mut wake: UnixStream,
    mut listener: Option<TcpListener>,
) {
    let mut session = shared.db.session();
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut payload = Vec::new();
    let mut next_id = 0u64;
    let mut accept_paused: Option<Instant> = None;
    // Set at shutdown: when to give up on replies the sockets have not taken.
    let mut closing: Option<Instant> = None;

    loop {
        let now = Instant::now();
        if closing.is_none() && shared.stop.load(Ordering::Acquire) {
            // Answer what has already arrived and read no more; parked acks
            // are resolved by the wakes the logger still sends.
            closing = Some(now + WRITE_TIMEOUT);
            listener = None;
            let health = shared.db.durability_health();
            for conn in &mut conns {
                if conn.reading {
                    conn.read_and_serve(shared, &mut session, health, &mut scratch, now);
                }
                conn.reading = false;
            }
        }
        for conn in &mut conns {
            conn.expire_reads(shared, now);
            conn.write(shared, &mut payload, now);
        }
        conns.retain(|conn| {
            let finished = conn.finished(now);
            if finished {
                shared.active_conns.fetch_sub(1, Ordering::AcqRel);
            }
            !finished
        });
        if closing.is_some_and(|until| conns.is_empty() || now >= until) {
            return;
        }

        accept_paused = accept_paused.filter(|until| *until > now);
        fds.clear();
        fds.push(pollfd(wake.as_raw_fd(), POLLIN));
        let listening = listener.as_ref().filter(|_| accept_paused.is_none());
        if let Some(listener) = listening {
            fds.push(pollfd(listener.as_raw_fd(), POLLIN));
        }
        let first_conn = fds.len();
        let mut deadline = accept_paused.or(closing);
        for conn in &conns {
            let read = if conn.reading { POLLIN } else { 0 };
            let write = if conn.wbuf.is_empty() { 0 } else { POLLOUT };
            fds.push(pollfd(conn.stream.get_ref().as_raw_fd(), read | write));
            let read_deadline = conn.read_deadline(&shared.config).map(|(at, _)| at);
            let write_deadline = conn.write_stalled.map(|since| since + WRITE_TIMEOUT);
            deadline = deadline.into_iter().chain(read_deadline).chain(write_deadline).min();
        }
        // Never block inside an epoch: that would hold the durable epoch
        // below it, and with it every ack parked here.
        session.quiesce();
        wait_ready(&mut fds, deadline.map(|d| d.saturating_duration_since(now)));

        let now = Instant::now();
        if fds[0].revents != 0 {
            while matches!(wake.read(&mut scratch), Ok(n) if n > 0) {}
            if closing.is_none() {
                let mut arrivals = shared.arrivals[index].lock().unwrap_or_else(|e| e.into_inner());
                conns.append(&mut arrivals);
            }
        }
        if let Some(listener) = listening.filter(|_| fds[1].revents != 0) {
            accept_paused = accept_all(shared, listener, &mut next_id, &mut conns, now);
        }
        // One health probe per round, not one per request. Connections
        // adopted this round were not polled and wait for the next.
        let health = shared.db.durability_health();
        for (conn, fd) in conns.iter_mut().zip(&fds[first_conn..]) {
            if conn.reading && fd.revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                conn.read_and_serve(shared, &mut session, health, &mut scratch, now);
            } else if fd.revents & (POLLHUP | POLLERR) != 0 {
                conn.kill(shared);
            }
        }
    }
}

/// Dispatches one decoded request: protocol-level requests (`Hello`,
/// `Tokenized`) are resolved here — including the token-replay window and
/// the degraded-writes shed — and everything else goes to [`execute`].
fn handle_request(
    shared: &Shared,
    session: &mut Session,
    conn_lineage: &mut u64,
    req: Request,
    health: DurabilityHealth,
) -> Outgoing {
    match req {
        Request::Hello { version, features, lineage } => {
            if version != PROTOCOL_VERSION {
                return reply_err(
                    ErrorCode::UnsupportedVersion,
                    format!(
                        "server speaks protocol version {PROTOCOL_VERSION}, client sent {version}"
                    ),
                );
            }
            let granted = features & SUPPORTED_FEATURES;
            if granted & protocol::FEATURE_REQUEST_TOKENS != 0 && lineage != 0 {
                *conn_lineage = lineage;
                // Materialize the lineage's window now so a replayed token
                // finds it even if the original ack raced the reconnect.
                shared.lineages.lock().unwrap_or_else(|e| e.into_inner()).acquire(lineage);
            }
            Outgoing {
                durable_epoch: 0,
                resp: Response::HelloOk { version: PROTOCOL_VERSION, features: granted },
            }
        }
        Request::Tokenized { token, req } => {
            if *conn_lineage == 0 {
                return reply_err(
                    ErrorCode::BadRequest,
                    "tokenized request without a token-negotiating handshake".to_string(),
                );
            }
            let window =
                shared.lineages.lock().unwrap_or_else(|e| e.into_inner()).get(*conn_lineage);
            let Some(window) = window else {
                // Evicted under lineage pressure: execute as a fresh write
                // (replay protection is bounded, not infinite).
                return shed_or_execute(shared, session, &req, health);
            };
            // Replay check *before* the degraded shed: a write that was
            // already applied and remembered must return its recorded
            // outcome, not a fresh rejection — the stored durable epoch
            // still gates the ack on actual durability.
            if let Some(stored) = window.lock().unwrap_or_else(|e| e.into_inner()).lookup(token) {
                shared.stats().token_replays += 1;
                return stored;
            }
            let out = shed_or_execute(shared, session, &req, health);
            // Remember only successful outcomes: a shed or abort is safe to
            // re-execute, and recording it would pin a transient failure as
            // the token's permanent answer.
            if !matches!(out.resp, Response::Error { .. }) {
                window.lock().unwrap_or_else(|e| e.into_inner()).record(token, out.clone());
            }
            out
        }
        req => shed_or_execute(shared, session, &req, health),
    }
}

/// The degraded-durability write shed, applied on the way into [`execute`].
fn shed_or_execute(
    shared: &Shared,
    session: &mut Session,
    req: &Request,
    health: DurabilityHealth,
) -> Outgoing {
    let degraded = !matches!(health, DurabilityHealth::Healthy) && shared.logger.is_some();
    if degraded && req.is_write() {
        shared.stats().writes_shed_degraded += 1;
        return reply_err(
            ErrorCode::DurabilityDegraded,
            format!(
                "shedding writes: durability {}",
                match health {
                    DurabilityHealth::Degraded { lag_epochs } => {
                        format!("lags by {lag_epochs} epochs")
                    }
                    DurabilityHealth::Failed => "failed permanently".to_string(),
                    DurabilityHealth::Healthy => "healthy".to_string(),
                }
            ),
        );
    }
    execute(shared, session, req)
}

/// Runs one request on the worker's session. Single operations follow the
/// session's retry rule; a multi-op `Txn` executes exactly once — the client
/// decides whether an abort is worth retrying.
fn execute(shared: &Shared, session: &mut Session, req: &Request) -> Outgoing {
    let db = &shared.db;
    // Catalog errors first, so transactions never see unknown table ids.
    if let Some(table) = req_tables(req).find(|&t| db.try_table(t).is_none()) {
        return reply_err(ErrorCode::NoSuchTable, format!("unknown table id {table}"));
    }
    // On commit: the reply, and the commit TID when the request wrote.
    let committed = match req {
        Request::Health => {
            let health = db.durability_health();
            let global_epoch = db.epochs().global_epoch();
            let durable_epoch =
                shared.logger.as_ref().map(|l| l.durable_epoch()).unwrap_or(global_epoch);
            return Outgoing {
                durable_epoch: 0,
                resp: Response::Health {
                    health: health.into(),
                    lag_epochs: global_epoch.saturating_sub(durable_epoch),
                    durable_epoch,
                    global_epoch,
                },
            };
        }
        Request::OpenTable { name } => {
            return match session.open_table(name) {
                Ok(id) => Outgoing { durable_epoch: 0, resp: Response::TableId { id } },
                Err(_) => reply_err(ErrorCode::NoSuchTable, format!("cannot open table {name:?}")),
            };
        }
        Request::Get { table, key } => {
            session.get(*table, key).map(|value| (Response::Value { value }, None))
        }
        Request::Scan { table, start, end, limit } => session
            .scan(*table, start, end.as_deref(), (*limit != 0).then_some(*limit as usize))
            .map(|entries| (Response::Entries { entries }, None)),
        Request::Put { table, key, value } => {
            session.put(*table, key, value).map(|tid| (Response::Ok, Some(tid)))
        }
        Request::Insert { table, key, value } => {
            session.insert(*table, key, value).map(|tid| (Response::Ok, Some(tid)))
        }
        Request::Delete { table, key } => {
            session.retry(|txn| txn.delete(*table, key)).map(|(_, tid)| (Response::Ok, Some(tid)))
        }
        Request::Txn { ops } => session
            .transact(|txn| {
                let mut reads = Vec::new();
                for op in ops {
                    match op {
                        TxnOp::Get { table, key } => reads.push(txn.read(*table, key)?),
                        TxnOp::Put { table, key, value } => txn.write(*table, key, value)?,
                        TxnOp::Insert { table, key, value } => txn.insert(*table, key, value)?,
                        TxnOp::Delete { table, key } => {
                            txn.delete(*table, key)?;
                        }
                    }
                }
                Ok(reads)
            })
            .map(|(reads, tid)| {
                (Response::TxnOk { reads }, ops.iter().any(TxnOp::is_write).then_some(tid))
            }),
        // Resolved by `handle_request` before execution ever sees them.
        Request::Hello { .. } | Request::Tokenized { .. } => {
            return reply_err(
                ErrorCode::Internal,
                "protocol-level request reached the executor".to_string(),
            );
        }
    };
    match committed {
        Ok((resp, wrote)) => {
            shared.stats().txns_committed += 1;
            // A logged write's reply waits in the out-queue for its epoch.
            let durable_epoch = match (wrote, &shared.logger) {
                (Some(tid), Some(_)) => tid.epoch(),
                _ => 0,
            };
            Outgoing { durable_epoch, resp }
        }
        Err(abort) => {
            shared.stats().txns_aborted += 1;
            reply_err(ErrorCode::Aborted, abort.0.to_string())
        }
    }
}

/// Every table id a request references, for catalog validation.
fn req_tables(req: &Request) -> impl Iterator<Item = u32> + '_ {
    let (single, ops): (Option<u32>, &[TxnOp]) = match req {
        Request::Get { table, .. }
        | Request::Put { table, .. }
        | Request::Insert { table, .. }
        | Request::Delete { table, .. }
        | Request::Scan { table, .. } => (Some(*table), &[]),
        Request::Txn { ops } => (None, ops.as_slice()),
        // `Tokenized` is unwrapped by `handle_request` before validation.
        Request::Health
        | Request::OpenTable { .. }
        | Request::Hello { .. }
        | Request::Tokenized { .. } => (None, &[]),
    };
    single.into_iter().chain(ops.iter().map(|op| match op {
        TxnOp::Get { table, .. }
        | TxnOp::Put { table, .. }
        | TxnOp::Insert { table, .. }
        | TxnOp::Delete { table, .. } => *table,
    }))
}

fn reply_err(code: ErrorCode, detail: String) -> Outgoing {
    Outgoing { durable_epoch: 0, resp: Response::Error { code, detail } }
}
