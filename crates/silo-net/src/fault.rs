//! Deterministic wire-level fault injection.
//!
//! The network twin of `silo_log::fault`, built on the same seeded
//! [`Schedule`] core: a [`NetFaultPlan`] schedules faults (by kind) at
//! specific operation counts of the two I/O sites ([`NetFaultSite::Read`] and
//! [`NetFaultSite::Write`]), and a [`FaultStream`] wraps one half of a
//! connection, injecting the scheduled faults into the byte stream.
//!
//! Both the server's accept path ([`crate::ServerConfig::with_fault`]) and
//! the client's connect path install the wrapper unconditionally; when no
//! plan is configured the per-call overhead is one `Option` check, nothing
//! else — no extra copies, no extra syscalls.
//!
//! Plans are either built explicitly ([`NetFaultPlan::fail_at`], for unit
//! tests that need one precise fault) or derived from a seed by
//! [`NetFaultPlan::from_seed`], for the chaos suite: the same seed always
//! reproduces the same schedule, so a CI failure replays from the printed
//! seed alone.
//!
//! # Fault semantics
//!
//! * [`NetFaultKind::Reset`] — the connection dies: the underlying socket is
//!   shut down in both directions (so the peer's half fails too) and every
//!   subsequent call on this stream returns `ECONNRESET`.
//! * [`NetFaultKind::Torn`] — a torn write: a prefix of the buffer reaches
//!   the wire, then the connection dies. On the read site it models the
//!   mirror image — the stream ends mid-frame (`Ok(0)`).
//! * [`NetFaultKind::Stall`] — the call succeeds, but only after sleeping
//!   (a congested or half-frozen peer).
//! * [`NetFaultKind::Loris`] — slow-loris: the call moves exactly one byte,
//!   after a delay. Schedule a run of these to dribble a frame header
//!   through a server's read deadline.
//! * [`NetFaultKind::CorruptFrame`] — flips one bit in the first four bytes
//!   moved by the call *and* forces the top length-prefix bit high. Frames
//!   are flushed header-first, so under the protocol's flush discipline the
//!   corruption lands in a length prefix and is *guaranteed detectable*: the
//!   receiver sees an oversized frame and fails typed instead of misparsing
//!   silently (the wire has no end-to-end checksum, so payload corruption
//!   would otherwise be invisible).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use silo_log::fault::Schedule;

pub use silo_log::fault::xorshift;

/// Which half of a connection a fault fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultSite {
    /// A `read` call on the connection.
    Read,
    /// A `write` call on the connection.
    Write,
}

/// What kind of wire failure to inject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetFaultKind {
    /// The connection resets: the socket is shut down both ways and the
    /// call fails with `ECONNRESET`.
    Reset,
    /// A torn transfer: on the write site, a prefix of the buffer lands and
    /// the connection then dies; on the read site the stream ends mid-frame.
    Torn,
    /// The call succeeds after stalling this long.
    Stall {
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// Slow-loris: the call moves exactly one byte after this delay.
    Loris {
        /// Delay before the single byte, in milliseconds.
        millis: u64,
    },
    /// Detectably corrupts the frame header at the start of this call's
    /// buffer (see the module docs for why corruption is constrained to the
    /// length prefix).
    CorruptFrame {
        /// Which of the first 32 bits to flip (taken modulo 32).
        bit: u64,
    },
}

/// A deterministic schedule of wire faults, shared by every [`FaultStream`]
/// of one endpoint (all its connections count into the same per-site
/// counters, exactly like `FaultPlan` is shared by every sink of one logging
/// subsystem). Dereferences to its [`Schedule`] for
/// [`Schedule::next_fault`], [`Schedule::injected`] and
/// [`Schedule::exhausted`]. A newtype rather than an alias, so that it can
/// carry its own seeded constructor.
#[derive(Debug)]
pub struct NetFaultPlan(Schedule<NetFaultSite, NetFaultKind>);

impl std::ops::Deref for NetFaultPlan {
    type Target = Schedule<NetFaultSite, NetFaultKind>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl Default for NetFaultPlan {
    fn default() -> Self {
        NetFaultPlan::new()
    }
}

impl NetFaultPlan {
    /// An empty plan (schedule faults with [`NetFaultPlan::fail_at`]).
    pub fn new() -> NetFaultPlan {
        NetFaultPlan(Schedule::new())
    }

    /// Schedules `kind` to fire on the `nth` operation (1-based) at `site`.
    pub fn fail_at(self, site: NetFaultSite, nth: u64, kind: NetFaultKind) -> NetFaultPlan {
        NetFaultPlan(self.0.fail_at(site, nth, kind))
    }

    /// A random mixed schedule derived from `seed`: one to four faults of
    /// random kinds at random early operation counts.
    pub fn from_seed(seed: u64) -> NetFaultPlan {
        let mut state = seed | 1;
        let mut schedule = Schedule::new();
        for _ in 0..1 + (xorshift(&mut state) % 4) {
            let site = if xorshift(&mut state) % 2 == 0 {
                NetFaultSite::Read
            } else {
                NetFaultSite::Write
            };
            let at = 1 + (xorshift(&mut state) % 48);
            schedule = schedule.fail_at(site, at, Self::random_kind(&mut state));
        }
        NetFaultPlan(schedule)
    }

    fn random_kind(state: &mut u64) -> NetFaultKind {
        match xorshift(state) % 5 {
            0 => NetFaultKind::Reset,
            1 => NetFaultKind::Torn,
            2 => NetFaultKind::Stall {
                millis: 1 + xorshift(state) % 20,
            },
            3 => NetFaultKind::Loris {
                millis: 1 + xorshift(state) % 5,
            },
            _ => NetFaultKind::CorruptFrame {
                bit: xorshift(state),
            },
        }
    }
}

fn reset_error() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::ConnectionReset, "injected connection reset")
}

/// One half of a connection with a [`NetFaultPlan`] spliced into it.
///
/// Wraps any `Read` or `Write` (in practice a [`TcpStream`] clone, buffered
/// above this wrapper so faults hit real syscall boundaries). When the plan
/// is `None` every call forwards directly after a single `Option` check.
///
/// Killing faults ([`NetFaultKind::Reset`], [`NetFaultKind::Torn`]) also
/// shut down the paired socket (when one was provided via
/// [`FaultStream::with_socket`]) so the connection's *other* half — and the
/// peer — observe the death too, exactly like a real RST.
pub struct FaultStream<S> {
    inner: S,
    plan: Option<Arc<NetFaultPlan>>,
    /// Set once a killing fault fired; all further I/O fails fast.
    dead: Arc<AtomicBool>,
    /// The socket to shut down on a killing fault.
    socket: Option<TcpStream>,
}

impl<S> FaultStream<S> {
    /// Wraps `inner`, injecting the faults `plan` schedules (`None` = a pure
    /// passthrough costing one branch per call).
    pub fn new(inner: S, plan: Option<Arc<NetFaultPlan>>) -> FaultStream<S> {
        FaultStream {
            inner,
            plan,
            dead: Arc::new(AtomicBool::new(false)),
            socket: None,
        }
    }

    /// Attaches the socket to shut down when a killing fault fires, so the
    /// peer and the connection's other half see the reset too.
    pub fn with_socket(mut self, socket: TcpStream) -> FaultStream<S> {
        self.socket = Some(socket);
        self
    }

    /// Shares this stream's death flag with the connection's other half, so
    /// a reset on one half fails the other immediately.
    pub fn share_death(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.dead)
    }

    /// Adopts a death flag shared from the connection's other half.
    pub fn with_shared_death(mut self, dead: Arc<AtomicBool>) -> FaultStream<S> {
        self.dead = dead;
        self
    }

    /// The inner stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    fn kill(&self) {
        self.dead.store(true, Ordering::Release);
        if let Some(socket) = &self.socket {
            let _ = socket.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Flips `bit % 32` in the first four bytes of `data` and forces the top
/// bit of a little-endian length prefix high, making the corruption
/// detectable as an oversized frame (see the module docs).
fn corrupt_prefix(data: &mut [u8], bit: u64) {
    if data.is_empty() {
        return;
    }
    let bit = (bit % 32) as usize;
    let pos = (bit / 8).min(data.len() - 1);
    data[pos] ^= 1 << (bit % 8);
    let high = 3.min(data.len() - 1);
    data[high] |= 0x80;
}

impl<S: Read> Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some(plan) = &self.plan else {
            return self.inner.read(buf);
        };
        if self.dead.load(Ordering::Acquire) {
            return Err(reset_error());
        }
        match plan.next_fault(NetFaultSite::Read) {
            None => self.inner.read(buf),
            Some(NetFaultKind::Reset) => {
                self.kill();
                Err(reset_error())
            }
            Some(NetFaultKind::Torn) => {
                // The peer died mid-frame: the stream just ends.
                self.kill();
                Ok(0)
            }
            Some(NetFaultKind::Stall { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
                self.inner.read(buf)
            }
            Some(NetFaultKind::Loris { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
                let n = buf.len().min(1);
                self.inner.read(&mut buf[..n])
            }
            Some(NetFaultKind::CorruptFrame { bit }) => {
                let n = self.inner.read(buf)?;
                corrupt_prefix(&mut buf[..n], bit);
                Ok(n)
            }
        }
    }
}

impl<S: Write> Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let Some(plan) = &self.plan else {
            return self.inner.write(buf);
        };
        if self.dead.load(Ordering::Acquire) {
            return Err(reset_error());
        }
        match plan.next_fault(NetFaultSite::Write) {
            None => self.inner.write(buf),
            Some(NetFaultKind::Reset) => {
                self.kill();
                Err(reset_error())
            }
            Some(NetFaultKind::Torn) => {
                // A prefix lands on the wire, then the connection dies.
                let torn = (buf.len() / 2).max(1).min(buf.len());
                let n = self.inner.write(&buf[..torn]).unwrap_or(0);
                let _ = self.inner.flush();
                self.kill();
                if n == 0 {
                    Err(reset_error())
                } else {
                    Ok(n)
                }
            }
            Some(NetFaultKind::Stall { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
                self.inner.write(buf)
            }
            Some(NetFaultKind::Loris { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
                let n = buf.len().min(1);
                let written = self.inner.write(&buf[..n])?;
                let _ = self.inner.flush();
                Ok(written)
            }
            Some(NetFaultKind::CorruptFrame { bit }) => {
                let mut corrupted = buf.to_vec();
                corrupt_prefix(&mut corrupted, bit);
                self.inner.write(&corrupted)
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.plan.is_some() && self.dead.load(Ordering::Acquire) {
            return Err(reset_error());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduled_fault_fires_exactly_once_at_its_count() {
        let plan = NetFaultPlan::new().fail_at(NetFaultSite::Write, 2, NetFaultKind::Reset);
        assert_eq!(plan.next_fault(NetFaultSite::Write), None);
        assert_eq!(plan.next_fault(NetFaultSite::Write), Some(NetFaultKind::Reset));
        assert_eq!(plan.next_fault(NetFaultSite::Write), None);
        assert_eq!(plan.injected(), 1);
        assert!(plan.exhausted());
    }

    #[test]
    fn sites_count_independently() {
        let plan = NetFaultPlan::new()
            .fail_at(NetFaultSite::Read, 1, NetFaultKind::Torn)
            .fail_at(NetFaultSite::Write, 2, NetFaultKind::Stall { millis: 0 });
        assert_eq!(plan.next_fault(NetFaultSite::Write), None);
        assert_eq!(plan.next_fault(NetFaultSite::Read), Some(NetFaultKind::Torn));
        assert_eq!(
            plan.next_fault(NetFaultSite::Write),
            Some(NetFaultKind::Stall { millis: 0 })
        );
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        for seed in [1u64, 7, 0xDEAD_BEEF] {
            let a = NetFaultPlan::from_seed(seed);
            let b = NetFaultPlan::from_seed(seed);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed} must reproduce its schedule");
        }
    }

    #[test]
    fn disabled_plan_is_a_passthrough() {
        let mut s = FaultStream::new(Vec::new(), None);
        s.write_all(b"hello").unwrap();
        assert_eq!(s.get_ref(), b"hello");
    }

    #[test]
    fn reset_kills_the_stream_for_good() {
        let plan = Arc::new(NetFaultPlan::new().fail_at(
            NetFaultSite::Write,
            1,
            NetFaultKind::Reset,
        ));
        let mut s = FaultStream::new(Vec::new(), Some(plan));
        let err = s.write(b"hello").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
        // The schedule is exhausted, but the stream stays dead.
        let err = s.write(b"hello").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
        assert!(s.get_ref().is_empty(), "no bytes may land after a reset");
    }

    #[test]
    fn torn_write_lands_a_prefix_then_dies() {
        let plan =
            Arc::new(NetFaultPlan::new().fail_at(NetFaultSite::Write, 1, NetFaultKind::Torn));
        let mut s = FaultStream::new(Vec::new(), Some(plan));
        let n = s.write(b"abcdefgh").unwrap();
        assert_eq!(n, 4, "half the buffer lands");
        assert_eq!(s.get_ref(), b"abcd");
        assert!(s.write(b"rest").is_err(), "the stream is dead afterwards");
    }

    #[test]
    fn corrupt_frame_is_detectable_as_oversized() {
        let plan = Arc::new(NetFaultPlan::new().fail_at(
            NetFaultSite::Write,
            1,
            NetFaultKind::CorruptFrame { bit: 9 },
        ));
        let mut s = FaultStream::new(Vec::new(), Some(plan));
        // A 16-byte frame header announcing a small payload.
        s.write_all(&[16, 0, 0, 0, 1, 2, 3]).unwrap();
        let len = u32::from_le_bytes(s.get_ref()[..4].try_into().unwrap());
        assert!(
            len as usize > crate::protocol::DEFAULT_MAX_FRAME_BYTES,
            "corrupted length prefix ({len}) must exceed any sane frame cap"
        );
    }

    #[test]
    fn loris_dribbles_one_byte_per_call() {
        let plan = Arc::new(
            NetFaultPlan::new()
                .fail_at(NetFaultSite::Write, 1, NetFaultKind::Loris { millis: 0 })
                .fail_at(NetFaultSite::Write, 2, NetFaultKind::Loris { millis: 0 }),
        );
        let mut s = FaultStream::new(Vec::new(), Some(plan));
        assert_eq!(s.write(b"abc").unwrap(), 1);
        assert_eq!(s.write(b"bc").unwrap(), 1);
        assert_eq!(s.write(b"c").unwrap(), 1);
        assert_eq!(s.get_ref(), b"abc");
    }

    #[test]
    fn shared_death_fails_the_other_half() {
        let plan =
            Arc::new(NetFaultPlan::new().fail_at(NetFaultSite::Write, 1, NetFaultKind::Reset));
        let mut w = FaultStream::new(Vec::new(), Some(Arc::clone(&plan)));
        let mut r =
            FaultStream::new(&b"data"[..], Some(plan)).with_shared_death(w.share_death());
        assert!(w.write(b"x").is_err());
        let mut buf = [0u8; 4];
        assert!(r.read(&mut buf).is_err(), "reset on the write half kills reads too");
    }
}
