//! Op streams. Every input the engine sees is generated here from `--seed`:
//! the same seed gives the same keys, values and transaction kinds, on the
//! fly (a stream is a few machine words of state, so replaying it after the
//! run to compute expected results costs no memory in the measured loop).

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use silo_wl::tpcc::TxnKind;

use crate::harness::fnv1a;

/// Operations hashed into a stream's fingerprint.
const HASHED_OPS: usize = 4096;

fn rng_for(seed: u64, workload_tag: u64, thread: usize) -> SmallRng {
    SmallRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (workload_tag << 32) ^ (thread as u64 + 1),
    )
}

/// Paper §5.2 YCSB variant: 80 % read, 20 % single-key read-modify-write,
/// keys uniform over `keys`.
pub struct YcsbStream {
    rng: SmallRng,
    keys: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct YcsbOp {
    pub key: u64,
    pub rmw: bool,
}

impl YcsbStream {
    pub fn new(seed: u64, thread: usize, keys: u64) -> YcsbStream {
        YcsbStream {
            rng: rng_for(seed, 1, thread),
            keys,
        }
    }

    #[inline]
    pub fn next_op(&mut self) -> YcsbOp {
        let r = self.rng.next_u64();
        YcsbOp {
            key: (r / 5) % self.keys,
            rmw: r.is_multiple_of(5),
        }
    }

    pub fn fingerprint(seed: u64, keys: u64) -> u64 {
        let mut s = YcsbStream::new(seed, 0, keys);
        (0..HASHED_OPS).fold(0, |h, _| {
            let op = s.next_op();
            fnv1a(fnv1a(h, &op.key.to_le_bytes()), &[op.rmw as u8])
        })
    }
}

/// TPC-C standard mix, 45/43/4/4/4. The harness draws the kind; the
/// transaction's own inputs are drawn by `silo_wl::tpcc::txns` from the
/// second generator, which the harness seeds and owns as well.
pub struct TpccStream {
    kinds: SmallRng,
    pub inputs: SmallRng,
}

impl TpccStream {
    pub fn new(seed: u64, thread: usize) -> TpccStream {
        TpccStream {
            kinds: rng_for(seed, 2, thread),
            inputs: rng_for(seed, 3, thread),
        }
    }

    #[inline]
    pub fn next_kind(&mut self) -> TxnKind {
        match self.kinds.next_u64() % 100 {
            0..=44 => TxnKind::NewOrder,
            45..=87 => TxnKind::Payment,
            88..=91 => TxnKind::OrderStatus,
            92..=95 => TxnKind::Delivery,
            _ => TxnKind::StockLevel,
        }
    }

    pub fn fingerprint(seed: u64) -> u64 {
        let mut s = TpccStream::new(seed, 0);
        (0..HASHED_OPS).fold(0, |h, _| {
            let kind = s.next_kind() as u8;
            fnv1a(fnv1a(h, &[kind]), &s.inputs.next_u64().to_le_bytes())
        })
    }
}

/// Key-value requests for the wire workloads: keys uniform over
/// `[base, base + keys)`, a `put_pct` share of `PUT`s.
pub struct NetStream {
    rng: SmallRng,
    base: u32,
    keys: u32,
    put_pct: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetOp {
    pub key: u32,
    pub put: bool,
}

impl NetStream {
    pub fn new(seed: u64, thread: usize, base: u32, keys: u32, put_pct: u64) -> NetStream {
        NetStream {
            rng: rng_for(seed, 4, thread),
            base,
            keys,
            put_pct,
        }
    }

    #[inline]
    pub fn next_op(&mut self) -> NetOp {
        let r = self.rng.next_u64();
        NetOp {
            key: self.base + ((r / 100) % u64::from(self.keys)) as u32,
            put: r % 100 < self.put_pct,
        }
    }

    pub fn fingerprint(seed: u64, keys: u32, put_pct: u64) -> u64 {
        let mut s = NetStream::new(seed, 0, 0, keys, put_pct);
        (0..HASHED_OPS).fold(0, |h, _| {
            let op = s.next_op();
            fnv1a(fnv1a(h, &op.key.to_le_bytes()), &[op.put as u8])
        })
    }
}

/// Key of the wire workloads' table.
pub fn net_key(key: u32) -> Vec<u8> {
    format!("k{key:08}").into_bytes()
}

/// The 100-byte value `version` of `key`: both are readable back from the
/// first eight bytes and the rest is a pattern of the two, so a torn or
/// misplaced value cannot pass for a good one.
pub fn net_value(key: u32, version: u32) -> Vec<u8> {
    let mut v = Vec::with_capacity(100);
    v.extend_from_slice(&key.to_le_bytes());
    v.extend_from_slice(&version.to_le_bytes());
    v.extend((8..100u32).map(|i| key.wrapping_add(version).wrapping_add(i) as u8));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_other_seed_other_stream() {
        for (a, b, c) in [
            (
                YcsbStream::fingerprint(7, 20_000),
                YcsbStream::fingerprint(7, 20_000),
                YcsbStream::fingerprint(8, 20_000),
            ),
            (
                TpccStream::fingerprint(7),
                TpccStream::fingerprint(7),
                TpccStream::fingerprint(8),
            ),
            (
                NetStream::fingerprint(7, 10_000, 50),
                NetStream::fingerprint(7, 10_000, 50),
                NetStream::fingerprint(8, 10_000, 50),
            ),
        ] {
            assert_eq!(a, b);
            assert_ne!(a, c);
        }
    }

    #[test]
    fn threads_of_one_seed_get_different_streams() {
        let mut a = YcsbStream::new(1, 0, 1000);
        let mut b = YcsbStream::new(1, 1, 1000);
        let same = (0..100).filter(|_| a.next_op() == b.next_op()).count();
        assert!(same < 10);
    }

    #[test]
    fn mixes_have_the_stated_shares() {
        let mut y = YcsbStream::new(3, 0, 1000);
        let rmw = (0..100_000).filter(|_| y.next_op().rmw).count();
        assert!((19_000..21_000).contains(&rmw), "{rmw}");
        let mut t = TpccStream::new(3, 0);
        let new_orders = (0..100_000)
            .filter(|_| t.next_kind() == TxnKind::NewOrder)
            .count();
        assert!((44_000..46_000).contains(&new_orders), "{new_orders}");
        let mut n = NetStream::new(3, 0, 5_000, 5_000, 50);
        for _ in 0..1000 {
            let op = n.next_op();
            assert!((5_000..10_000).contains(&op.key));
        }
    }

    #[test]
    fn net_values_identify_key_and_version() {
        let v = net_value(42, 7);
        assert_eq!(v.len(), 100);
        assert_eq!(&v[..4], &42u32.to_le_bytes());
        assert_ne!(v, net_value(42, 8));
        assert_ne!(v, net_value(43, 7));
        assert_eq!(net_key(42), b"k00000042");
    }
}
