//! The wire protocol: length-prefixed frames carrying a compact binary
//! encoding of requests and responses.
//!
//! # Framing
//!
//! Every message — in either direction — is one *frame*: a little-endian
//! `u32` payload length followed by that many payload bytes. Frames are
//! self-delimiting, so a connection can carry any number of pipelined
//! requests before the first response is read; the server answers each
//! connection's requests **in order** (like Redis pipelining), which is what
//! lets a client issue `N` requests and then drain `N` responses without
//! per-request ids.
//!
//! A frame longer than the receiver's configured maximum is rejected before
//! any allocation ([`FrameError::Oversized`]); a stream that ends mid-frame
//! (a crashed peer, a torn TCP segment) is reported as [`FrameError::Torn`],
//! distinct from a clean end-of-stream between frames.
//!
//! # Payload encoding
//!
//! The payload starts with a one-byte tag selecting the [`Request`] or
//! [`Response`] variant, followed by the variant's fields: integers are
//! little-endian, byte strings are a `u32` length plus the raw bytes, and
//! options are a one-byte presence flag. Decoding is strict — trailing
//! bytes, unknown tags, and truncated fields are all errors — so protocol
//! drift between client and server fails loudly instead of misparsing.

use std::io::{Read, Write};

/// Default cap on a single frame's payload size (16 MiB). Large enough for
/// any sane scan result, small enough that a corrupt or malicious length
/// prefix cannot make the receiver allocate unbounded memory.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 16 << 20;

/// The protocol version this build speaks, carried by [`Request::Hello`].
/// A server answers an unknown version with a typed
/// [`ErrorCode::UnsupportedVersion`] error instead of desyncing on frames
/// it cannot parse.
pub const PROTOCOL_VERSION: u32 = 1;

/// Feature bit: the client may wrap write requests in
/// [`Request::Tokenized`] and the server keeps a bounded per-lineage token
/// window for exactly-once replay after a reconnect.
pub const FEATURE_REQUEST_TOKENS: u64 = 1 << 0;

/// Every feature bit this build understands; a [`Request::Hello`] negotiates
/// the intersection of both sides' masks.
pub const SUPPORTED_FEATURES: u64 = FEATURE_REQUEST_TOKENS;

/// Cap on operations in one [`Request::Txn`] batch. A decoded count beyond
/// this is rejected ([`ProtocolError::TooLarge`]) before any operation is
/// materialized, so a hostile frame cannot make the server execute an
/// unbounded transaction.
pub const MAX_TXN_OPS: usize = 4096;

/// A client-to-server request.
///
/// `Get`/`Put`/`Insert`/`Delete`/`Scan` execute as single-operation
/// transactions; [`Request::Txn`] executes a whole batch of operations as
/// one atomic transaction. Writes are acknowledged only once their commit
/// epoch has passed the server's durable watermark (group commit), so a
/// [`Response::Ok`] for a write means *durably committed*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Read one key.
    Get {
        /// Target table id (from [`Request::OpenTable`]).
        table: u32,
        /// The key to read.
        key: Vec<u8>,
    },
    /// Upsert one key.
    Put {
        /// Target table id.
        table: u32,
        /// The key to write.
        key: Vec<u8>,
        /// The value to write.
        value: Vec<u8>,
    },
    /// Insert one key; aborts if the key already exists.
    Insert {
        /// Target table id.
        table: u32,
        /// The key to insert.
        key: Vec<u8>,
        /// The value to insert.
        value: Vec<u8>,
    },
    /// Delete one key.
    Delete {
        /// Target table id.
        table: u32,
        /// The key to delete.
        key: Vec<u8>,
    },
    /// Range scan `[start, end)` returning at most `limit` entries
    /// (`limit == 0` means no limit).
    Scan {
        /// Target table id.
        table: u32,
        /// Inclusive start of the key range.
        start: Vec<u8>,
        /// Exclusive end of the key range (`None` = to the end).
        end: Option<Vec<u8>>,
        /// Maximum number of entries to return (0 = unlimited).
        limit: u32,
    },
    /// A multi-operation transaction, executed atomically: either every
    /// operation commits or none does. Read results are returned in
    /// operation order by [`Response::TxnOk`].
    Txn {
        /// The operations, executed in order within one transaction.
        ops: Vec<TxnOp>,
    },
    /// Durability health probe.
    Health,
    /// Resolve a table name to an id, creating the table if it does not
    /// exist yet.
    OpenTable {
        /// The table name.
        name: String,
    },
    /// Protocol handshake: the first request a versioned client sends.
    /// Negotiates the protocol version and feature bits; a server that does
    /// not speak `version` answers [`ErrorCode::UnsupportedVersion`] instead
    /// of misparsing later frames.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
        /// Feature bits the client requests (see [`FEATURE_REQUEST_TOKENS`]);
        /// the server grants the intersection in [`Response::HelloOk`].
        features: u64,
        /// The client's connection *lineage*: a stable identity that
        /// survives reconnects, keying the server's token-replay window.
        /// `0` means the client does not use request tokens.
        lineage: u64,
    },
    /// A write request carrying a client-assigned token. When the
    /// connection's lineage negotiated [`FEATURE_REQUEST_TOKENS`], the
    /// server remembers the outcome of the last `N` tokenized writes per
    /// lineage; re-issuing a token after a reconnect returns the remembered
    /// outcome instead of applying the write twice.
    Tokenized {
        /// The client-assigned token, unique per lineage.
        token: u64,
        /// The wrapped write request (nesting `Tokenized`/`Hello` is a
        /// protocol error).
        req: Box<Request>,
    },
}

/// One operation inside a [`Request::Txn`] batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnOp {
    /// Read a key (its result appears in [`Response::TxnOk`]).
    Get {
        /// Target table id.
        table: u32,
        /// The key to read.
        key: Vec<u8>,
    },
    /// Upsert a key.
    Put {
        /// Target table id.
        table: u32,
        /// The key to write.
        key: Vec<u8>,
        /// The value to write.
        value: Vec<u8>,
    },
    /// Insert a key (aborts the transaction if it exists).
    Insert {
        /// Target table id.
        table: u32,
        /// The key to insert.
        key: Vec<u8>,
        /// The value to insert.
        value: Vec<u8>,
    },
    /// Delete a key.
    Delete {
        /// Target table id.
        table: u32,
        /// The key to delete.
        key: Vec<u8>,
    },
}

impl TxnOp {
    /// Whether this operation modifies the database.
    pub fn is_write(&self) -> bool {
        !matches!(self, TxnOp::Get { .. })
    }
}

impl Request {
    /// Whether this request modifies the database (and therefore needs a
    /// durable acknowledgement and is subject to durability-degradation
    /// shedding).
    pub fn is_write(&self) -> bool {
        match self {
            Request::Put { .. } | Request::Insert { .. } | Request::Delete { .. } => true,
            Request::Txn { ops } => ops.iter().any(TxnOp::is_write),
            Request::Tokenized { req, .. } => req.is_write(),
            // OpenTable mutates the catalog but is not logged; it is acked
            // immediately and never shed.
            Request::Get { .. }
            | Request::Scan { .. }
            | Request::Health
            | Request::OpenTable { .. }
            | Request::Hello { .. } => false,
        }
    }
}

/// A server-to-client response. Responses arrive in request order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The request failed; the payload says why and whether retrying makes
    /// sense (see [`ErrorCode`]).
    Error {
        /// The typed error class.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// Result of a [`Request::Get`].
    Value {
        /// The value, or `None` if the key is absent.
        value: Option<Vec<u8>>,
    },
    /// A write (or write transaction) committed — and, when the server runs
    /// with a durability subsystem, its epoch passed the durable watermark
    /// before this ack was sent.
    Ok,
    /// Result of a [`Request::Scan`]: the matching key/value pairs in
    /// ascending key order.
    Entries {
        /// The matching `(key, value)` pairs.
        entries: Vec<(Vec<u8>, Vec<u8>)>,
    },
    /// Result of a committed [`Request::Txn`]: the values observed by each
    /// `Get` operation, in operation order.
    TxnOk {
        /// One entry per `Get` in the transaction, in op order.
        reads: Vec<Option<Vec<u8>>>,
    },
    /// Result of a [`Request::Health`] probe.
    Health {
        /// The durability subsystem's health classification.
        health: HealthStatus,
        /// Epochs the durable epoch trails the global epoch by.
        lag_epochs: u64,
        /// The global durable epoch `D`.
        durable_epoch: u64,
        /// The current global epoch `E`.
        global_epoch: u64,
    },
    /// Result of a [`Request::OpenTable`].
    TableId {
        /// The table's id, usable in subsequent requests.
        id: u32,
    },
    /// Result of a successful [`Request::Hello`] handshake.
    HelloOk {
        /// The protocol version the server will speak (== the client's).
        version: u32,
        /// The granted feature bits (intersection of requested and
        /// supported).
        features: u64,
    },
}

/// Wire form of [`silo_core::DurabilityHealth`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthStatus {
    /// Durability keeps up with the global epoch (or the server runs without
    /// a durability subsystem).
    Healthy,
    /// The durable epoch lags beyond the watermark; writes are being shed.
    Degraded,
    /// Durability failed permanently; writes are being shed.
    Failed,
}

impl From<silo_core::DurabilityHealth> for HealthStatus {
    fn from(h: silo_core::DurabilityHealth) -> Self {
        match h {
            silo_core::DurabilityHealth::Healthy => HealthStatus::Healthy,
            silo_core::DurabilityHealth::Degraded { .. } => HealthStatus::Degraded,
            silo_core::DurabilityHealth::Failed => HealthStatus::Failed,
        }
    }
}

/// Typed error classes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The transaction aborted (validation failure, duplicate insert, …).
    /// Retrying is reasonable.
    Aborted,
    /// The server shed the request before executing it (its connection's
    /// reply backlog is over the watermark) or refused the connection (too
    /// many open). Back off and retry.
    ServerBusy,
    /// The server shed this *write* because durability is degraded or failed
    /// (`durability_health()`): accepting it would hand out acks the log
    /// cannot back. Reads are still served. Probe [`Request::Health`] and
    /// retry once healthy.
    DurabilityDegraded,
    /// The request was malformed (unknown table id, bad frame contents).
    BadRequest,
    /// The named table does not exist.
    NoSuchTable,
    /// An internal server error.
    Internal,
    /// The [`Request::Hello`] announced a protocol version this server does
    /// not speak. Not retryable on this connection.
    UnsupportedVersion,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Aborted => 1,
            ErrorCode::ServerBusy => 2,
            ErrorCode::DurabilityDegraded => 3,
            ErrorCode::BadRequest => 4,
            ErrorCode::NoSuchTable => 5,
            ErrorCode::Internal => 6,
            ErrorCode::UnsupportedVersion => 7,
        }
    }

    fn from_u8(tag: u8) -> Result<Self, ProtocolError> {
        Ok(match tag {
            1 => ErrorCode::Aborted,
            2 => ErrorCode::ServerBusy,
            3 => ErrorCode::DurabilityDegraded,
            4 => ErrorCode::BadRequest,
            5 => ErrorCode::NoSuchTable,
            6 => ErrorCode::Internal,
            7 => ErrorCode::UnsupportedVersion,
            t => return Err(ProtocolError::BadTag { what: "error code", tag: t }),
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::Aborted => "transaction aborted",
            ErrorCode::ServerBusy => "server busy",
            ErrorCode::DurabilityDegraded => "durability degraded",
            ErrorCode::BadRequest => "bad request",
            ErrorCode::NoSuchTable => "no such table",
            ErrorCode::Internal => "internal error",
            ErrorCode::UnsupportedVersion => "unsupported protocol version",
        };
        f.write_str(s)
    }
}

/// A payload that failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The payload ended before a field was complete.
    Truncated,
    /// An unknown variant or enum tag.
    BadTag {
        /// What kind of tag was being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// Bytes remained after the message was fully decoded.
    Trailing {
        /// How many undecoded bytes remained.
        extra: usize,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A repeated field announced more elements than the receiver accepts
    /// (e.g. a `Txn` batch beyond [`MAX_TXN_OPS`]).
    TooLarge {
        /// What kind of collection overflowed.
        what: &'static str,
        /// The announced element count.
        len: usize,
        /// The receiver's limit.
        max: usize,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "payload truncated"),
            ProtocolError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            ProtocolError::Trailing { extra } => write!(f, "{extra} trailing bytes after message"),
            ProtocolError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtocolError::TooLarge { what, len, max } => {
                write!(f, "{what} of {len} elements exceeds the limit of {max}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A frame-level failure while reading from a stream.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The stream ended in the middle of a frame (crashed peer / torn
    /// write). Distinct from a clean end-of-stream *between* frames, which
    /// [`read_frame`] reports as `Ok(false)`.
    Torn,
    /// The frame header announced a payload larger than the configured
    /// maximum. The connection must be dropped: the stream can no longer be
    /// trusted to be frame-aligned.
    Oversized {
        /// The announced payload length.
        len: usize,
        /// The receiver's limit.
        max: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Torn => write!(f, "stream ended mid-frame"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one frame (length prefix + payload). The caller batches frames in
/// a buffered writer and flushes once per pipeline burst.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame payload exceeds u32")
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)
}

/// The payload length a frame header announces; more than `max_bytes` is
/// [`FrameError::Oversized`]. The one decoder of the frame header, shared by
/// [`read_frame`] and the server's buffered `split_frame`.
fn payload_len(header: [u8; 4], max_bytes: usize) -> Result<usize, FrameError> {
    let len = u32::from_le_bytes(header) as usize;
    if len > max_bytes {
        return Err(FrameError::Oversized { len, max: max_bytes });
    }
    Ok(len)
}

/// The first frame in `buf`: its payload and the bytes it spans, header
/// included. `Ok(None)` while the frame is incomplete; a header announcing
/// more than `max_bytes` is [`FrameError::Oversized`].
pub(crate) fn split_frame(
    buf: &[u8],
    max_bytes: usize,
) -> Result<Option<(&[u8], usize)>, FrameError> {
    let Some(header) = buf.get(..4) else {
        return Ok(None);
    };
    let len = payload_len(header.try_into().expect("four bytes"), max_bytes)?;
    Ok(buf.get(4..4 + len).map(|payload| (payload, 4 + len)))
}

/// Reads one frame's payload into `buf` (cleared first, capacity reused)
/// from a blocking stream.
///
/// Returns `Ok(true)` when a frame was read, `Ok(false)` on a clean
/// end-of-stream (the peer closed between frames). A stream that ends
/// *inside* a frame yields [`FrameError::Torn`]; a header announcing more
/// than `max_bytes` yields [`FrameError::Oversized`] before anything is
/// allocated. A socket read timeout surfaces as [`FrameError::Io`].
pub fn read_frame(
    r: &mut impl Read,
    buf: &mut Vec<u8>,
    max_bytes: usize,
) -> Result<bool, FrameError> {
    let torn = |e: std::io::Error| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => FrameError::Torn,
        _ => FrameError::Io(e),
    };
    let mut header = [0u8; 4];
    loop {
        match r.read(&mut header) {
            Ok(0) => return Ok(false),
            Ok(n) => {
                r.read_exact(&mut header[n..]).map_err(torn)?;
                break;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = payload_len(header, max_bytes)?;
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf).map_err(torn)?;
    Ok(true)
}

// ---------------------------------------------------------------------------
// Payload primitives
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

fn put_opt_bytes(buf: &mut Vec<u8>, b: Option<&[u8]>) {
    match b {
        Some(b) => {
            buf.push(1);
            put_bytes(buf, b);
        }
        None => buf.push(0),
    }
}

/// A strict cursor over a payload.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { rest: bytes }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.rest.len() < n {
            return Err(ProtocolError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, ProtocolError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn opt_bytes(&mut self) -> Result<Option<Vec<u8>>, ProtocolError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.bytes()?)),
            t => Err(ProtocolError::BadTag { what: "option flag", tag: t }),
        }
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        String::from_utf8(self.bytes()?).map_err(|_| ProtocolError::BadUtf8)
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(ProtocolError::Trailing { extra: self.rest.len() })
        }
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

const REQ_GET: u8 = 1;
const REQ_PUT: u8 = 2;
const REQ_INSERT: u8 = 3;
const REQ_DELETE: u8 = 4;
const REQ_SCAN: u8 = 5;
const REQ_TXN: u8 = 6;
const REQ_HEALTH: u8 = 7;
const REQ_OPEN_TABLE: u8 = 8;
const REQ_HELLO: u8 = 9;
const REQ_TOKENIZED: u8 = 10;

const OP_GET: u8 = 1;
const OP_PUT: u8 = 2;
const OP_INSERT: u8 = 3;
const OP_DELETE: u8 = 4;

/// Appends the payload encoding of `req` to `buf` (which is *not* cleared,
/// so callers can reuse one buffer per frame after framing it themselves).
pub fn encode_request(buf: &mut Vec<u8>, req: &Request) {
    match req {
        Request::Get { table, key } => {
            buf.push(REQ_GET);
            put_u32(buf, *table);
            put_bytes(buf, key);
        }
        Request::Put { table, key, value } => {
            buf.push(REQ_PUT);
            put_u32(buf, *table);
            put_bytes(buf, key);
            put_bytes(buf, value);
        }
        Request::Insert { table, key, value } => {
            buf.push(REQ_INSERT);
            put_u32(buf, *table);
            put_bytes(buf, key);
            put_bytes(buf, value);
        }
        Request::Delete { table, key } => {
            buf.push(REQ_DELETE);
            put_u32(buf, *table);
            put_bytes(buf, key);
        }
        Request::Scan { table, start, end, limit } => {
            buf.push(REQ_SCAN);
            put_u32(buf, *table);
            put_bytes(buf, start);
            put_opt_bytes(buf, end.as_deref());
            put_u32(buf, *limit);
        }
        Request::Txn { ops } => {
            buf.push(REQ_TXN);
            put_u32(buf, ops.len() as u32);
            for op in ops {
                match op {
                    TxnOp::Get { table, key } => {
                        buf.push(OP_GET);
                        put_u32(buf, *table);
                        put_bytes(buf, key);
                    }
                    TxnOp::Put { table, key, value } => {
                        buf.push(OP_PUT);
                        put_u32(buf, *table);
                        put_bytes(buf, key);
                        put_bytes(buf, value);
                    }
                    TxnOp::Insert { table, key, value } => {
                        buf.push(OP_INSERT);
                        put_u32(buf, *table);
                        put_bytes(buf, key);
                        put_bytes(buf, value);
                    }
                    TxnOp::Delete { table, key } => {
                        buf.push(OP_DELETE);
                        put_u32(buf, *table);
                        put_bytes(buf, key);
                    }
                }
            }
        }
        Request::Health => buf.push(REQ_HEALTH),
        Request::OpenTable { name } => {
            buf.push(REQ_OPEN_TABLE);
            put_bytes(buf, name.as_bytes());
        }
        Request::Hello { version, features, lineage } => {
            buf.push(REQ_HELLO);
            put_u32(buf, *version);
            put_u64(buf, *features);
            put_u64(buf, *lineage);
        }
        Request::Tokenized { token, req } => {
            buf.push(REQ_TOKENIZED);
            put_u64(buf, *token);
            encode_request(buf, req);
        }
    }
}

/// Decodes one request payload.
pub fn decode_request(bytes: &[u8]) -> Result<Request, ProtocolError> {
    let mut c = Cursor::new(bytes);
    let req = decode_request_inner(&mut c, false)?;
    c.finish()?;
    Ok(req)
}

/// Decodes one request from the cursor; `nested` forbids `Hello`/`Tokenized`
/// so a `Tokenized` wrapper cannot recurse.
fn decode_request_inner(c: &mut Cursor<'_>, nested: bool) -> Result<Request, ProtocolError> {
    let req = match c.u8()? {
        REQ_GET => Request::Get { table: c.u32()?, key: c.bytes()? },
        REQ_PUT => Request::Put { table: c.u32()?, key: c.bytes()?, value: c.bytes()? },
        REQ_INSERT => Request::Insert { table: c.u32()?, key: c.bytes()?, value: c.bytes()? },
        REQ_DELETE => Request::Delete { table: c.u32()?, key: c.bytes()? },
        REQ_SCAN => Request::Scan {
            table: c.u32()?,
            start: c.bytes()?,
            end: c.opt_bytes()?,
            limit: c.u32()?,
        },
        REQ_TXN => {
            let n = c.u32()? as usize;
            if n > MAX_TXN_OPS {
                return Err(ProtocolError::TooLarge { what: "txn batch", len: n, max: MAX_TXN_OPS });
            }
            let mut ops = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let op = match c.u8()? {
                    OP_GET => TxnOp::Get { table: c.u32()?, key: c.bytes()? },
                    OP_PUT => TxnOp::Put { table: c.u32()?, key: c.bytes()?, value: c.bytes()? },
                    OP_INSERT => {
                        TxnOp::Insert { table: c.u32()?, key: c.bytes()?, value: c.bytes()? }
                    }
                    OP_DELETE => TxnOp::Delete { table: c.u32()?, key: c.bytes()? },
                    t => return Err(ProtocolError::BadTag { what: "txn op", tag: t }),
                };
                ops.push(op);
            }
            Request::Txn { ops }
        }
        REQ_HEALTH => Request::Health,
        REQ_OPEN_TABLE => Request::OpenTable { name: c.string()? },
        REQ_HELLO if !nested => {
            Request::Hello { version: c.u32()?, features: c.u64()?, lineage: c.u64()? }
        }
        REQ_TOKENIZED if !nested => {
            let token = c.u64()?;
            let req = decode_request_inner(c, true)?;
            Request::Tokenized { token, req: Box::new(req) }
        }
        t => return Err(ProtocolError::BadTag { what: "request", tag: t }),
    };
    Ok(req)
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

const RESP_ERROR: u8 = 0;
const RESP_VALUE: u8 = 1;
const RESP_OK: u8 = 2;
const RESP_ENTRIES: u8 = 3;
const RESP_TXN_OK: u8 = 4;
const RESP_HEALTH: u8 = 5;
const RESP_TABLE_ID: u8 = 6;
const RESP_HELLO_OK: u8 = 7;

/// Appends the payload encoding of `resp` to `buf`.
pub fn encode_response(buf: &mut Vec<u8>, resp: &Response) {
    match resp {
        Response::Error { code, detail } => {
            buf.push(RESP_ERROR);
            buf.push(code.to_u8());
            put_bytes(buf, detail.as_bytes());
        }
        Response::Value { value } => {
            buf.push(RESP_VALUE);
            put_opt_bytes(buf, value.as_deref());
        }
        Response::Ok => buf.push(RESP_OK),
        Response::Entries { entries } => {
            buf.push(RESP_ENTRIES);
            put_u32(buf, entries.len() as u32);
            for (k, v) in entries {
                put_bytes(buf, k);
                put_bytes(buf, v);
            }
        }
        Response::TxnOk { reads } => {
            buf.push(RESP_TXN_OK);
            put_u32(buf, reads.len() as u32);
            for r in reads {
                put_opt_bytes(buf, r.as_deref());
            }
        }
        Response::Health { health, lag_epochs, durable_epoch, global_epoch } => {
            buf.push(RESP_HEALTH);
            buf.push(match health {
                HealthStatus::Healthy => 0,
                HealthStatus::Degraded => 1,
                HealthStatus::Failed => 2,
            });
            put_u64(buf, *lag_epochs);
            put_u64(buf, *durable_epoch);
            put_u64(buf, *global_epoch);
        }
        Response::TableId { id } => {
            buf.push(RESP_TABLE_ID);
            put_u32(buf, *id);
        }
        Response::HelloOk { version, features } => {
            buf.push(RESP_HELLO_OK);
            put_u32(buf, *version);
            put_u64(buf, *features);
        }
    }
}

/// Decodes one response payload.
pub fn decode_response(bytes: &[u8]) -> Result<Response, ProtocolError> {
    let mut c = Cursor::new(bytes);
    let resp = match c.u8()? {
        RESP_ERROR => Response::Error { code: ErrorCode::from_u8(c.u8()?)?, detail: c.string()? },
        RESP_VALUE => Response::Value { value: c.opt_bytes()? },
        RESP_OK => Response::Ok,
        RESP_ENTRIES => {
            let n = c.u32()? as usize;
            let mut entries = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let k = c.bytes()?;
                let v = c.bytes()?;
                entries.push((k, v));
            }
            Response::Entries { entries }
        }
        RESP_TXN_OK => {
            let n = c.u32()? as usize;
            let mut reads = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                reads.push(c.opt_bytes()?);
            }
            Response::TxnOk { reads }
        }
        RESP_HEALTH => {
            let health = match c.u8()? {
                0 => HealthStatus::Healthy,
                1 => HealthStatus::Degraded,
                2 => HealthStatus::Failed,
                t => return Err(ProtocolError::BadTag { what: "health status", tag: t }),
            };
            Response::Health {
                health,
                lag_epochs: c.u64()?,
                durable_epoch: c.u64()?,
                global_epoch: c.u64()?,
            }
        }
        RESP_TABLE_ID => Response::TableId { id: c.u32()? },
        RESP_HELLO_OK => Response::HelloOk { version: c.u32()?, features: c.u64()? },
        t => return Err(ProtocolError::BadTag { what: "response", tag: t }),
    };
    c.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn frame_roundtrip_and_clean_eof() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&frame(b"alpha"));
        stream.extend_from_slice(&frame(b""));
        stream.extend_from_slice(&frame(b"beta"));
        let mut r = &stream[..];
        let mut buf = Vec::new();
        assert!(read_frame(&mut r, &mut buf, 1024).unwrap());
        assert_eq!(buf, b"alpha");
        assert!(read_frame(&mut r, &mut buf, 1024).unwrap());
        assert_eq!(buf, b"");
        assert!(read_frame(&mut r, &mut buf, 1024).unwrap());
        assert_eq!(buf, b"beta");
        assert!(!read_frame(&mut r, &mut buf, 1024).unwrap());
    }

    #[test]
    fn torn_header_and_torn_payload_are_rejected() {
        let full = frame(b"payload");
        // Every strict prefix of a frame must read as Torn, not clean EOF —
        // except the empty prefix, which is a clean end-of-stream.
        for cut in 1..full.len() {
            let mut r = &full[..cut];
            let mut buf = Vec::new();
            match read_frame(&mut r, &mut buf, 1024) {
                Err(FrameError::Torn) => {}
                other => panic!("prefix of {cut} bytes: expected Torn, got {other:?}"),
            }
        }
        let mut r = &full[..0];
        let mut buf = Vec::new();
        assert!(!read_frame(&mut r, &mut buf, 1024).unwrap());
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        // Header announces 1 GiB; the limit is 64 KiB. No payload follows,
        // but the error must fire on the header alone.
        let header = (1u32 << 30).to_le_bytes();
        let mut r = &header[..];
        let mut buf = Vec::new();
        match read_frame(&mut r, &mut buf, 64 << 10) {
            Err(FrameError::Oversized { len, max }) => {
                assert_eq!(len, 1 << 30);
                assert_eq!(max, 64 << 10);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        assert!(buf.capacity() < (1 << 30));
    }

    #[test]
    fn split_frame_takes_whole_frames_and_rejects_oversized_headers() {
        let stream = [frame(b"alpha"), frame(b"")].concat();
        let (payload, used) = split_frame(&stream, 1024).unwrap().unwrap();
        assert_eq!((payload, used), (&b"alpha"[..], 9));
        assert_eq!(split_frame(&stream[used..], 1024).unwrap(), Some((&b""[..], 4)));
        // Every strict prefix of a frame is incomplete, not an error.
        for cut in 0..used {
            assert_eq!(split_frame(&stream[..cut], 1024).unwrap(), None, "cut {cut}");
        }
        match split_frame(&(1u32 << 30).to_le_bytes(), 64 << 10) {
            Err(FrameError::Oversized { len, max }) => assert_eq!((len, max), (1 << 30, 64 << 10)),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn strict_decoding_rejects_trailing_and_bad_tags() {
        let mut buf = Vec::new();
        encode_request(&mut buf, &Request::Health);
        buf.push(0xFF);
        assert_eq!(decode_request(&buf), Err(ProtocolError::Trailing { extra: 1 }));

        assert!(matches!(
            decode_request(&[0x7F]),
            Err(ProtocolError::BadTag { what: "request", .. })
        ));
        assert_eq!(decode_request(&[]), Err(ProtocolError::Truncated));
        assert!(matches!(
            decode_response(&[0x7F]),
            Err(ProtocolError::BadTag { what: "response", .. })
        ));

        // A truncated byte-string length must not over-read.
        let mut buf = Vec::new();
        encode_request(&mut buf, &Request::Get { table: 3, key: b"abcdef".to_vec() });
        buf.truncate(buf.len() - 2);
        assert_eq!(decode_request(&buf), Err(ProtocolError::Truncated));
    }

    #[test]
    fn hello_and_tokenized_roundtrip() {
        for req in [
            Request::Hello { version: PROTOCOL_VERSION, features: SUPPORTED_FEATURES, lineage: 77 },
            Request::Tokenized {
                token: 42,
                req: Box::new(Request::Put { table: 1, key: b"k".to_vec(), value: b"v".to_vec() }),
            },
        ] {
            let mut buf = Vec::new();
            encode_request(&mut buf, &req);
            assert_eq!(decode_request(&buf).unwrap(), req);
        }
        let resp = Response::HelloOk { version: PROTOCOL_VERSION, features: FEATURE_REQUEST_TOKENS };
        let mut buf = Vec::new();
        encode_response(&mut buf, &resp);
        assert_eq!(decode_response(&buf).unwrap(), resp);
    }

    #[test]
    fn nested_tokenized_and_hello_are_rejected() {
        for inner in [
            Request::Hello { version: 1, features: 0, lineage: 0 },
            Request::Tokenized { token: 2, req: Box::new(Request::Health) },
        ] {
            let mut buf = Vec::new();
            encode_request(&mut buf, &Request::Tokenized { token: 1, req: Box::new(inner) });
            assert!(matches!(
                decode_request(&buf),
                Err(ProtocolError::BadTag { what: "request", .. })
            ));
        }
    }

    #[test]
    fn oversized_txn_batch_is_rejected_before_materializing_ops() {
        let mut buf = Vec::new();
        buf.push(6); // REQ_TXN
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(
            decode_request(&buf),
            Err(ProtocolError::TooLarge {
                what: "txn batch",
                len: u32::MAX as usize,
                max: MAX_TXN_OPS
            })
        );
    }

    #[test]
    fn tokenized_write_classification_delegates() {
        let write = Request::Tokenized {
            token: 1,
            req: Box::new(Request::Delete { table: 0, key: b"k".to_vec() }),
        };
        assert!(write.is_write());
        let read = Request::Tokenized {
            token: 2,
            req: Box::new(Request::Get { table: 0, key: b"k".to_vec() }),
        };
        assert!(!read.is_write());
        assert!(!Request::Hello { version: 1, features: 0, lineage: 0 }.is_write());
    }
}
