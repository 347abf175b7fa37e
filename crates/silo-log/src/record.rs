//! Redo-log record framing (paper §4.10).
//!
//! Silo uses record-level redo logging exclusively: a log record consists of
//! the committing transaction's TID and the table/key/value of every record
//! it modified. Deletes are logged with a "no value" marker so recovery can
//! reproduce them.
//!
//! The on-disk stream is a sequence of *blocks*:
//!
//! ```text
//! +------+---------------------------------------------------------+
//! | 0x01 | transaction block: tid u64 | count u32 | writes...      |
//! | 0x02 | durable-epoch marker: epoch u64                         |
//! | 0x03 | compressed block: raw_len u32 | comp_len u32 | bytes    |
//! | 0x04 | checksummed envelope: len u32 | crc32c u32 | blocks...  |
//! +------+---------------------------------------------------------+
//! ```
//!
//! each write being `table u32 | key_len u32 | key | tag u8 | [val_len u32 |
//! value]` with `tag = 1` for a value and `tag = 0` for a delete.
//!
//! Loggers wrap each group-commit round in one `0x04` envelope: `len` and a
//! CRC-32C (Castagnoli) over the inner blocks. Decoders verify the checksum
//! before looking inside, so a flipped bit anywhere in a round is detected
//! ([`DecodeError::BadChecksum`]) instead of silently replayed; an envelope
//! torn by a crash (the stream ends before `len` bytes arrive) is
//! end-of-stream (§4.10). Envelopes are the only top-level block: a bare
//! `0x01`–`0x03` block outside one is malformed, and compressed blocks do not
//! nest.
//!
//! The `SmallRecs` mode of the Figure 11 persistence analysis logs only the
//! 8-byte TID (count = 0), giving an upper bound for any logging scheme.

use silo_core::{CommitWrite, TableId};
use silo_tid::Tid;

/// Block tag for a transaction record.
pub const BLOCK_TXN: u8 = 0x01;
/// Block tag for a durable-epoch marker.
pub const BLOCK_EPOCH_MARKER: u8 = 0x02;
/// Block tag for a compressed region containing inner blocks.
pub const BLOCK_COMPRESSED: u8 = 0x03;
/// Block tag for a CRC-32C-checksummed envelope containing inner blocks.
pub const BLOCK_CHECKSUMMED: u8 = 0x04;

/// Bytes of a checksummed-envelope header: tag, payload length, CRC-32C.
const SEAL_HEADER: usize = 1 + 4 + 4;

/// CRC-32C (Castagnoli, reflected polynomial `0x82F63B78`) lookup table for
/// the byte-at-a-time loop, built at compile time — no dependencies, no
/// runtime initialization.
const CRC32C_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0x82F6_3B78 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// The CRC-32C of `data`: eight bytes per `crc32` instruction on a CPU with
/// SSE4.2, else one table lookup per byte. Both give the same value.
pub(crate) fn crc32c(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: the CPU supports SSE4.2, checked just above.
        return unsafe { crc32c_sse42(data) };
    }
    crc32c_table(data)
}

/// `crc32c` one byte at a time through `CRC32C_TABLE`.
fn crc32c_table(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c = CRC32C_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// `crc32c` with the SSE4.2 `crc32` instruction: eight bytes per step,
/// then the tail one byte per step.
///
/// # Safety
///
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_sse42(data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut c = u64::from(!0u32);
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        c = _mm_crc32_u64(c, u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let mut c = c as u32;
    for &b in words.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    !c
}

/// Reserves a checksummed-envelope header at the current end of `out` and
/// returns its offset. Append inner blocks, then call [`seal`] with the
/// returned offset to fill in the tag, length, and CRC in place — the
/// zero-allocation path the logger threads use on their reusable round
/// buffers.
pub fn begin_sealed(out: &mut Vec<u8>) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0u8; SEAL_HEADER]);
    at
}

/// Seals the envelope opened by [`begin_sealed`] at `header_at`: writes the
/// tag, the payload length, and the CRC-32C of everything appended since.
/// An empty envelope is removed instead (returns `false`).
pub fn seal(out: &mut Vec<u8>, header_at: usize) -> bool {
    let payload_start = header_at + SEAL_HEADER;
    debug_assert!(payload_start <= out.len(), "seal without begin_sealed");
    if out.len() == payload_start {
        out.truncate(header_at);
        return false;
    }
    let len = (out.len() - payload_start) as u32;
    let crc = crc32c(&out[payload_start..]);
    out[header_at] = BLOCK_CHECKSUMMED;
    out[header_at + 1..header_at + 5].copy_from_slice(&len.to_le_bytes());
    out[header_at + 5..header_at + 9].copy_from_slice(&crc.to_le_bytes());
    true
}

/// One logged write, owned (as read back by recovery).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedWrite {
    /// Table the write applies to.
    pub table: TableId,
    /// Record key.
    pub key: Vec<u8>,
    /// New value, or `None` for a delete.
    pub value: Option<Vec<u8>>,
}

/// One logged transaction, as read back by recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoggedTxn {
    /// The transaction's commit TID.
    pub tid: Tid,
    /// The writes it performed (empty in `SmallRecs` mode).
    pub writes: Vec<LoggedWrite>,
}

/// Appends a transaction block to `out`: the TID, the write count, and each
/// write as `table | key | tag [| value]`. Given a live transaction's
/// [`silo_core::CommitWrites::iter`] this is the zero-copy commit→log path:
/// each key and value is serialized straight from the committing worker's
/// write-set into the log buffer, with no intermediate collection.
///
/// When `small_records` is set, only the TID is logged (write count 0).
pub fn encode_txn<'a, I>(out: &mut Vec<u8>, tid: Tid, writes: I, small_records: bool)
where
    I: IntoIterator<Item = CommitWrite<'a>>,
    I::IntoIter: ExactSizeIterator,
{
    out.push(BLOCK_TXN);
    out.extend_from_slice(&tid.raw().to_le_bytes());
    if small_records {
        out.extend_from_slice(&0u32.to_le_bytes());
        return;
    }
    let writes = writes.into_iter();
    out.extend_from_slice(&(writes.len() as u32).to_le_bytes());
    for CommitWrite { table, key, value } in writes {
        out.extend_from_slice(&table.to_le_bytes());
        out.extend_from_slice(&(key.len() as u32).to_le_bytes());
        out.extend_from_slice(key);
        match value {
            Some(v) => {
                out.push(1);
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                out.extend_from_slice(v);
            }
            None => out.push(0),
        }
    }
}

/// Appends a durable-epoch marker block to `out`.
pub fn encode_epoch_marker(out: &mut Vec<u8>, epoch: u64) {
    out.push(BLOCK_EPOCH_MARKER);
    out.extend_from_slice(&epoch.to_le_bytes());
}

/// Appends a compressed block wrapping `raw` (already-encoded inner blocks).
pub fn encode_compressed(out: &mut Vec<u8>, raw: &[u8]) {
    encode_compressed_into(out, raw, &mut Vec::new(), &mut Vec::new());
}

/// Appends a compressed block wrapping `raw`, reusing the caller's
/// compression scratch: `scratch` receives the token stream and `heads` the
/// match-finder hash table. The logger threads keep both across rounds so
/// steady-state compression performs no heap allocation.
pub fn encode_compressed_into(
    out: &mut Vec<u8>,
    raw: &[u8],
    scratch: &mut Vec<u8>,
    heads: &mut Vec<usize>,
) {
    crate::compress::compress_into(raw, scratch, heads);
    out.push(BLOCK_COMPRESSED);
    out.extend_from_slice(&(raw.len() as u32).to_le_bytes());
    out.extend_from_slice(&(scratch.len() as u32).to_le_bytes());
    out.extend_from_slice(scratch);
}

/// A parsed block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Block {
    /// A transaction record.
    Txn(LoggedTxn),
    /// A durable-epoch marker.
    EpochMarker(u64),
}

/// A parsed block borrowed from the decoder's buffer (see
/// [`StreamDecoder::next_envelope_with`]).
pub(crate) enum BlockRef<'a> {
    /// A transaction record: its TID and its writes.
    Txn(Tid, WritesRef<'a>),
    /// A durable-epoch marker.
    EpochMarker(u64),
}

impl BlockRef<'_> {
    /// The owned block.
    fn into_block(self) -> Block {
        match self {
            BlockRef::Txn(tid, writes) => Block::Txn(LoggedTxn {
                tid,
                writes: writes
                    .map(|(table, key, value)| LoggedWrite {
                        table,
                        key: key.to_vec(),
                        value: value.map(<[u8]>::to_vec),
                    })
                    .collect(),
            }),
            BlockRef::EpochMarker(epoch) => Block::EpochMarker(epoch),
        }
    }
}

/// The writes of a borrowed transaction block, each `(table, key, value)`
/// with `value` `None` for a delete.
pub(crate) struct WritesRef<'a> {
    cur: Cursor<'a>,
    left: usize,
}

impl<'a> Iterator for WritesRef<'a> {
    type Item = WriteRef<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        self.left = self.left.checked_sub(1)?;
        Some(
            decode_write(&mut self.cur)
                .expect("the block was parsed whole before it was handed out"),
        )
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for WritesRef<'_> {}

/// Errors produced while decoding a log stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ended in the middle of an envelope. Recovery treats this as
    /// the end of the usable log (a torn final write).
    Truncated,
    /// An unknown block tag was encountered — or a known one where it may not
    /// appear (a bare block outside an envelope, a nested compressed block).
    BadTag(u8),
    /// A compressed block failed to decompress.
    BadCompression,
    /// A checksummed envelope's CRC did not match its contents (bit
    /// corruption), or a complete envelope held malformed inner blocks.
    BadChecksum,
    /// Reading from the underlying source failed.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "log stream truncated mid-block"),
            DecodeError::BadTag(t) => write!(f, "unknown log block tag {t:#x}"),
            DecodeError::BadCompression => write!(f, "corrupt compressed log block"),
            DecodeError::BadChecksum => write!(f, "log block checksum mismatch"),
            DecodeError::Io(kind) => write!(f, "log read error: {kind:?}"),
        }
    }
}

impl std::error::Error for DecodeError {}

#[derive(Clone, Copy)]
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

/// One write of a transaction block: `(table, key, value)`, `value` being
/// `None` for a delete.
type WriteRef<'a> = (TableId, &'a [u8], Option<&'a [u8]>);

fn decode_write<'a>(cur: &mut Cursor<'a>) -> Result<WriteRef<'a>, DecodeError> {
    let table = cur.u32()?;
    let key_len = cur.u32()? as usize;
    let key = cur.take(key_len)?;
    let value = if cur.u8()? == 1 {
        let val_len = cur.u32()? as usize;
        Some(cur.take(val_len)?)
    } else {
        None
    };
    Ok((table, key, value))
}

/// Where each TXN block of an envelope ends: recorded by the walk that
/// parses the envelope, replayed by the walk that hands its blocks out, which
/// so skips over the writes without decoding them again.
enum TxnEnds<'a> {
    Record(&'a mut Vec<usize>),
    Replay(std::slice::Iter<'a, usize>),
}

/// Walks a run of inner blocks — TXN and MARKER, plus one level of
/// COMPRESSED when `allow_compressed` — handing each to `f`.
fn walk_inner(
    data: &[u8],
    allow_compressed: bool,
    ends: &mut TxnEnds<'_>,
    f: &mut impl FnMut(BlockRef<'_>),
) -> Result<(), DecodeError> {
    let mut cur = Cursor { data, pos: 0 };
    while cur.remaining() > 0 {
        match cur.u8()? {
            BLOCK_TXN => {
                let tid = Tid::from_raw(cur.u64()?);
                let left = cur.u32()? as usize;
                let writes = WritesRef { cur, left };
                match ends {
                    TxnEnds::Record(ends) => {
                        for _ in 0..left {
                            decode_write(&mut cur)?;
                        }
                        ends.push(cur.pos);
                    }
                    TxnEnds::Replay(ends) => cur.pos = *ends.next().expect("a recorded end"),
                }
                f(BlockRef::Txn(tid, writes));
            }
            BLOCK_EPOCH_MARKER => f(BlockRef::EpochMarker(cur.u64()?)),
            BLOCK_COMPRESSED if allow_compressed => {
                let raw_len = cur.u32()? as usize;
                let comp_len = cur.u32()? as usize;
                let raw = crate::compress::decompress(cur.take(comp_len)?)
                    .map_err(|_| DecodeError::BadCompression)?;
                if raw.len() != raw_len {
                    return Err(DecodeError::BadCompression);
                }
                walk_inner(&raw, false, ends, f)?;
            }
            other => return Err(DecodeError::BadTag(other)),
        }
    }
    Ok(())
}

/// An incremental log-block decoder over any [`std::io::Read`] source.
///
/// It accepts exactly what the logger threads write: a sequence of
/// CRC-sealed envelopes, each holding transaction, marker and (one level of)
/// compressed blocks. The decoder holds at most one envelope (plus a refill
/// chunk) at a time — recovery uses it to replay arbitrarily large log files
/// with bounded memory. A torn *final* envelope (the stream ends before its
/// announced length) terminates the stream cleanly, as a crash can tear the
/// last file write; any other malformation is an error.
pub struct StreamDecoder<R> {
    reader: R,
    buf: Vec<u8>,
    pos: usize,
    eof: bool,
    /// Blocks of the current envelope, drained before the next is read.
    pending: std::collections::VecDeque<Block>,
    /// The current envelope's TXN block ends (see `TxnEnds`).
    txn_ends: Vec<usize>,
    consumed: u64,
}

/// Refill granularity for [`StreamDecoder`].
const STREAM_CHUNK: usize = 64 * 1024;

impl<R: std::io::Read> StreamDecoder<R> {
    /// Creates a decoder reading blocks from `reader`.
    pub fn new(reader: R) -> Self {
        StreamDecoder {
            reader,
            buf: Vec::with_capacity(STREAM_CHUNK),
            pos: 0,
            eof: false,
            pending: std::collections::VecDeque::new(),
            txn_ends: Vec::new(),
            consumed: 0,
        }
    }

    /// Total bytes of complete envelopes consumed so far.
    pub fn bytes_consumed(&self) -> u64 {
        self.consumed
    }

    fn refill(&mut self) -> Result<(), DecodeError> {
        // Drop the consumed prefix before growing the buffer.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let old_len = self.buf.len();
        self.buf.resize(old_len + STREAM_CHUNK, 0);
        let mut filled = old_len;
        while filled < self.buf.len() {
            match self.reader.read(&mut self.buf[filled..]) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(DecodeError::Io(e.kind())),
            }
        }
        self.buf.truncate(filled);
        Ok(())
    }

    /// Reads the next envelope and verifies its CRC, returning its payload's
    /// range in `buf`, or `None` at the end of the stream (including after a
    /// torn final envelope). The envelope stays unconsumed until
    /// [`consume_to`](Self::consume_to).
    fn next_payload(&mut self) -> Result<Option<(usize, usize)>, DecodeError> {
        loop {
            let mut cur = Cursor {
                data: &self.buf[self.pos..],
                pos: 0,
            };
            if cur.remaining() == 0 && self.eof {
                return Ok(None);
            }
            let envelope = (|| {
                let tag = cur.u8()?;
                if tag != BLOCK_CHECKSUMMED {
                    return Err(DecodeError::BadTag(tag));
                }
                let len = cur.u32()? as usize;
                let crc = cur.u32()?;
                let payload = cur.take(len)?;
                if crc32c(payload) != crc {
                    return Err(DecodeError::BadChecksum);
                }
                Ok(len)
            })();
            match envelope {
                Ok(len) => {
                    let end = self.pos + cur.pos;
                    return Ok(Some((end - len, end)));
                }
                Err(DecodeError::Truncated) if !self.eof => self.refill()?,
                // Torn final envelope: the stream ends at the previous one.
                Err(DecodeError::Truncated) => return Ok(None),
                Err(e) => return Err(e),
            }
        }
    }

    fn consume_to(&mut self, end: usize) {
        self.consumed += (end - self.pos) as u64;
        self.pos = end;
    }

    /// Decodes the next block, or `Ok(None)` at the end of the stream
    /// (including after a torn final envelope): the owned form of the
    /// borrowed envelope walk, compressed blocks admitted.
    pub fn next_block(&mut self) -> Result<Option<Block>, DecodeError> {
        loop {
            if let Some(block) = self.pending.pop_front() {
                return Ok(Some(block));
            }
            let mut pending = std::mem::take(&mut self.pending);
            let more = self.next_envelope_with(true, |block| pending.push_back(block.into_block()));
            self.pending = pending;
            if !more? {
                return Ok(None);
            }
        }
    }

    /// Decodes the next envelope and hands each of its blocks to `f` with
    /// keys and values borrowed from the decoder's buffer, so nothing is
    /// allocated per write. Returns `Ok(false)` at the end of the stream, a
    /// torn final envelope included. Compressed blocks are admitted only if
    /// `compressed` (log streams), else they are [`DecodeError::BadTag`]
    /// (checkpoint slices). The envelope's CRC is verified and its blocks
    /// are all parsed before `f` sees any of them, so nothing of a malformed
    /// envelope is handed out. Do not mix with `next_block` on one decoder.
    pub(crate) fn next_envelope_with(
        &mut self,
        compressed: bool,
        mut f: impl FnMut(BlockRef<'_>),
    ) -> Result<bool, DecodeError> {
        debug_assert!(self.pending.is_empty(), "mixed with next_block");
        let Some((start, end)) = self.next_payload()? else {
            return Ok(false);
        };
        let payload = &self.buf[start..end];
        // Parse first, hand out second: a compressed block is inflated twice.
        let ends = &mut self.txn_ends;
        ends.clear();
        walk_inner(payload, compressed, &mut TxnEnds::Record(ends), &mut |_| {})
            .map_err(inside_envelope)?;
        walk_inner(
            payload,
            compressed,
            &mut TxnEnds::Replay(ends.iter()),
            &mut f,
        )
        .expect("the envelope parsed above");
        self.consume_to(end);
        Ok(true)
    }
}

/// The CRC matched, so the payload is complete: a block cut short inside it
/// is corruption (a checksum collision or writer bug), never a torn write.
fn inside_envelope(e: DecodeError) -> DecodeError {
    match e {
        DecodeError::Truncated => DecodeError::BadChecksum,
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{as_writes, decode_all, sealed};

    /// A bare transaction block writing `k = v` to table 0.
    fn txn(tid: Tid) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_txn(&mut buf, tid, as_writes(&[(0, b"k", Some(b"v"))]), false);
        buf
    }

    #[test]
    fn txn_roundtrip_full_records() {
        let mut buf = Vec::new();
        let writes: Vec<(TableId, &[u8], Option<&[u8]>)> = vec![
            (0, b"key-a", Some(b"value-a".as_ref())),
            (3, b"key-b", None),
            (7, b"", Some(b"".as_ref())),
        ];
        encode_txn(&mut buf, Tid::new(5, 42), as_writes(&writes), false);
        encode_epoch_marker(&mut buf, 4);
        let stream = sealed(&buf);
        let blocks = decode_all(&stream).unwrap();
        assert_eq!(blocks.len(), 2);
        match &blocks[0] {
            Block::Txn(t) => {
                assert_eq!(t.tid, Tid::new(5, 42));
                assert_eq!(t.writes.len(), 3);
                assert_eq!(t.writes[0].key, b"key-a");
                assert_eq!(t.writes[0].value.as_deref(), Some(b"value-a".as_ref()));
                assert_eq!(t.writes[1].value, None);
                assert_eq!(t.writes[2].key, b"");
            }
            other => panic!("unexpected block {other:?}"),
        }
        assert_eq!(blocks[1], Block::EpochMarker(4));
    }

    #[test]
    fn small_records_log_only_the_tid() {
        let mut buf = Vec::new();
        let writes: Vec<(TableId, &[u8], Option<&[u8]>)> =
            vec![(0, b"key", Some(b"a-large-value".as_ref()))];
        encode_txn(&mut buf, Tid::new(1, 1), as_writes(&writes), true);
        assert_eq!(buf.len(), 1 + 8 + 4);
        match &decode_all(&sealed(&buf)).unwrap()[0] {
            Block::Txn(t) => assert!(t.writes.is_empty()),
            other => panic!("unexpected block {other:?}"),
        }
    }

    #[test]
    fn torn_final_envelope_is_end_of_stream() {
        let whole = sealed(&txn(Tid::new(1, 1)));
        let second = sealed(&txn(Tid::new(1, 2)));
        // Chop the second envelope in half, then inside its header.
        for cut in [second.len() / 2, 4] {
            let stream = [&whole[..], &second[..cut]].concat();
            let mut dec = StreamDecoder::new(stream.as_slice());
            assert!(dec.next_block().unwrap().is_some());
            assert_eq!(dec.next_block().unwrap(), None);
            assert_eq!(dec.bytes_consumed(), whole.len() as u64);
        }
    }

    #[test]
    fn bad_tag_is_an_error() {
        let buf = vec![0x7f, 0, 0, 0];
        assert_eq!(decode_all(&buf), Err(DecodeError::BadTag(0x7f)));
        assert_eq!(
            decode_all(&sealed(&buf)),
            Err(DecodeError::BadTag(0x7f)),
            "an unknown tag inside a verified envelope is corruption too"
        );
    }

    #[test]
    fn bare_top_level_blocks_are_rejected() {
        // Only envelopes are top-level blocks; a bare TXN, MARKER or
        // COMPRESSED block is whatever a damaged tag byte left behind.
        let txn = txn(Tid::new(1, 1));
        let mut marker = Vec::new();
        encode_epoch_marker(&mut marker, 3);
        let mut compressed = Vec::new();
        encode_compressed(&mut compressed, &txn);
        for bare in [txn, marker, compressed] {
            assert_eq!(decode_all(&bare), Err(DecodeError::BadTag(bare[0])));
        }
    }

    #[test]
    fn compressed_blocks_do_not_nest() {
        let mut once = Vec::new();
        encode_compressed(&mut once, &txn(Tid::new(1, 1)));
        assert_eq!(decode_all(&sealed(&once)).unwrap().len(), 1);
        let mut twice = Vec::new();
        encode_compressed(&mut twice, &once);
        assert_eq!(
            decode_all(&sealed(&twice)),
            Err(DecodeError::BadTag(BLOCK_COMPRESSED))
        );
    }

    #[test]
    fn truncated_block_inside_a_verified_envelope_is_corruption() {
        // The envelope is complete and its CRC matches, so a short inner
        // block is not a torn write — and the good block before it must not
        // be replayed either.
        let mut inner = Vec::new();
        encode_epoch_marker(&mut inner, 2);
        inner.extend(txn(Tid::new(1, 1)));
        inner.truncate(inner.len() - 3);
        let stream = sealed(&inner);
        assert_eq!(decode_all(&stream), Err(DecodeError::BadChecksum));
        let mut dec = StreamDecoder::new(stream.as_slice());
        assert_eq!(
            dec.next_envelope_with(true, |_| panic!("a block of a malformed envelope")),
            Err(DecodeError::BadChecksum)
        );
    }

    #[test]
    fn empty_stream_decodes_to_nothing() {
        assert_eq!(decode_all(&[]).unwrap(), Vec::new());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard CRC-32C check value, then the RFC 3720 (iSCSI) vectors.
        let ascending: Vec<u8> = (0..32).collect();
        for (data, crc) in [
            (&b"123456789"[..], 0xE306_9283),
            (b"", 0),
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xFFu8; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
        ] {
            assert_eq!(crc32c(data), crc, "{data:?}");
            assert_eq!(crc32c_table(data), crc, "{data:?}");
        }
    }

    /// Bytes that do not repeat with any short period.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn hardware_crc32c_agrees_with_the_table_at_every_length_and_offset() {
        if !std::arch::is_x86_feature_detected!("sse4.2") {
            return;
        }
        let data = noise(8 + 300);
        for start in 0..8 {
            for len in 0..=300 {
                let slice = &data[start..start + len];
                // SAFETY: the CPU supports SSE4.2, checked above.
                let hardware = unsafe { crc32c_sse42(slice) };
                assert_eq!(hardware, crc32c_table(slice), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn no_single_bit_flip_of_a_sealed_envelope_decodes_to_a_block() {
        let value = noise(250);
        let mut inner = Vec::new();
        let writes: [(TableId, &[u8], Option<&[u8]>); 1] = [(1, b"key", Some(&value))];
        encode_txn(&mut inner, Tid::new(6, 1), as_writes(&writes), false);
        encode_epoch_marker(&mut inner, 5);
        let envelope = sealed(&inner);
        assert!((290..=310).contains(&envelope.len()), "{}", envelope.len());
        assert_eq!(decode_all(&envelope).unwrap().len(), 2);
        for bit in 0..envelope.len() * 8 {
            let mut flipped = envelope.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            // A longer `len` tears the envelope (end of stream); any other
            // flip is an error. Neither replays anything.
            if let Ok(blocks) = decode_all(&flipped) {
                assert!(blocks.is_empty(), "bit {bit} decoded to {blocks:?}");
            }
        }
    }

    /// Catches a dispatch that silently runs the table on a CPU that has the
    /// instruction. Timing, so optimized builds only.
    #[test]
    #[cfg(target_arch = "x86_64")]
    #[cfg_attr(debug_assertions, ignore)]
    fn hardware_crc32c_is_at_least_four_times_faster_than_the_table() {
        if !std::arch::is_x86_feature_detected!("sse4.2") {
            return;
        }
        let data = noise(1 << 20);
        let best = |f: fn(&[u8]) -> u32| {
            (0..5)
                .map(|_| {
                    let started = std::time::Instant::now();
                    std::hint::black_box(f(std::hint::black_box(&data)));
                    started.elapsed()
                })
                .min()
                .expect("five runs")
        };
        let (dispatched, table) = (best(crc32c), best(crc32c_table));
        assert!(
            table >= dispatched * 4,
            "crc32c took {dispatched:?} per MiB, the table {table:?}"
        );
    }

    #[test]
    fn sealed_envelope_roundtrip() {
        let mut buf = Vec::new();
        let header = begin_sealed(&mut buf);
        buf.extend(txn(Tid::new(3, 1)));
        encode_epoch_marker(&mut buf, 2);
        assert!(seal(&mut buf, header));
        assert_eq!(buf[0], BLOCK_CHECKSUMMED);

        let mut dec = StreamDecoder::new(std::io::Cursor::new(buf.clone()));
        assert!(matches!(dec.next_block().unwrap(), Some(Block::Txn(_))));
        assert_eq!(dec.next_block().unwrap(), Some(Block::EpochMarker(2)));
        assert_eq!(dec.next_block().unwrap(), None);
        assert_eq!(dec.bytes_consumed(), buf.len() as u64);
    }

    #[test]
    fn borrowed_envelope_walk_sees_what_next_block_decodes() {
        let mut inner = Vec::new();
        let writes: [(TableId, &[u8], Option<&[u8]>); 2] = [(2, b"a", Some(b"1")), (3, b"b", None)];
        encode_txn(&mut inner, Tid::new(4, 1), as_writes(&writes), false);
        encode_epoch_marker(&mut inner, 3);
        let first = sealed(&inner);
        let second = sealed(&txn(Tid::new(4, 2)));
        let stream = [&first[..], &second[..], &second[..4]].concat();

        let mut walked = Vec::new();
        let mut dec = StreamDecoder::new(stream.as_slice());
        while dec
            .next_envelope_with(false, |block| walked.push(block.into_block()))
            .unwrap()
        {}
        assert_eq!(walked, decode_all(&stream).unwrap());
        assert_eq!(dec.bytes_consumed(), (first.len() + second.len()) as u64);

        // Compressed blocks are walked only when admitted, and a bad CRC is
        // still an error.
        let mut compressed = Vec::new();
        encode_compressed(&mut compressed, &txn(Tid::new(1, 1)));
        let compressed = sealed(&compressed);
        let mut dec = StreamDecoder::new(compressed.as_slice());
        let mut walked = Vec::new();
        assert_eq!(
            dec.next_envelope_with(true, |block| walked.push(block.into_block())),
            Ok(true)
        );
        assert_eq!(walked, decode_all(&compressed).unwrap());
        let mut flipped = second.clone();
        *flipped.last_mut().unwrap() ^= 1;
        for (stream, err) in [
            (compressed, DecodeError::BadTag(BLOCK_COMPRESSED)),
            (flipped, DecodeError::BadChecksum),
        ] {
            let mut dec = StreamDecoder::new(stream.as_slice());
            assert_eq!(dec.next_envelope_with(false, |_| {}), Err(err));
        }
    }

    #[test]
    fn sealing_an_empty_envelope_removes_it() {
        let mut buf = b"prefix".to_vec();
        let header = begin_sealed(&mut buf);
        assert!(!seal(&mut buf, header));
        assert_eq!(buf, b"prefix");
    }

    #[test]
    fn flipped_bit_in_sealed_payload_is_detected() {
        let mut buf = sealed(&txn(Tid::new(3, 1)));
        // Flip one bit in the payload (past the 9-byte header).
        let last = buf.len() - 1;
        buf[last] ^= 0x10;
        assert_eq!(decode_all(&buf), Err(DecodeError::BadChecksum));
    }

    #[test]
    fn sealed_compressed_round_decodes_through_both_layers() {
        let mut inner = Vec::new();
        for i in 0..20u64 {
            let key = format!("key{i:04}");
            let value = vec![b'x'; 64];
            let writes: Vec<(TableId, &[u8], Option<&[u8]>)> =
                vec![(1, key.as_bytes(), Some(&value))];
            encode_txn(&mut inner, Tid::new(2, i), as_writes(&writes), false);
        }
        let mut round = Vec::new();
        encode_compressed(&mut round, &inner);
        assert!(round.len() < inner.len(), "repetitive data should compress");
        encode_epoch_marker(&mut round, 1);
        assert_eq!(decode_all(&sealed(&round)).unwrap().len(), 21);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::testkit::as_writes;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn arb_write() -> impl Strategy<Value = LoggedWrite> {
        (
            0u32..16,
            vec(any::<u8>(), 0..40),
            proptest::option::of(vec(any::<u8>(), 0..120)),
        )
            .prop_map(|(table, key, value)| LoggedWrite { table, key, value })
    }

    proptest! {
        #[test]
        fn prop_txn_roundtrip(
            epoch in 1u64..10_000,
            seq in 0u64..100_000,
            writes in vec(arb_write(), 0..20),
            compress: bool,
        ) {
            let tid = Tid::new(epoch, seq);
            let borrowed: Vec<(TableId, &[u8], Option<&[u8]>)> = writes
                .iter()
                .map(|w| (w.table, w.key.as_slice(), w.value.as_deref()))
                .collect();
            let mut inner = Vec::new();
            encode_txn(&mut inner, tid, as_writes(&borrowed), false);
            let stream = crate::testkit::sealed(&if compress {
                let mut outer = Vec::new();
                encode_compressed(&mut outer, &inner);
                outer
            } else {
                inner
            });
            let mut decoder = StreamDecoder::new(stream.as_slice());
            match decoder.next_block() {
                Ok(Some(Block::Txn(t))) => {
                    prop_assert_eq!(t.tid, tid);
                    prop_assert_eq!(&t.writes, &writes);
                }
                other => return Err(TestCaseError::fail(format!("unexpected block {other:?}"))),
            }
            prop_assert_eq!(decoder.next_block(), Ok(None));
        }
    }
}
