// The prefix oracle's workload, shared by `tests/prefix_oracle.rs` and the
// crash-state test in `src/fs_tests.rs`. Each `include!`s it into a module of
// its own that first imports `xorshift` (`silo_log::fault::xorshift`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use silo_core::{Database, SiloConfig, TableId, Tid};

/// One committed transaction: its TID and its writes (`None` deletes).
pub(crate) type Committed = (Tid, Vec<(Vec<u8>, Option<Vec<u8>>)>);

/// A database whose epochs advance every 2 ms, a snapshot every 5.
pub(crate) fn open_db() -> Arc<Database> {
    Database::open(
        SiloConfig::for_testing()
            .with_spawn_epoch_advancer(true)
            .with_epoch(silo_core::EpochConfig {
                epoch_interval: Duration::from_millis(2),
                snapshot_interval_epochs: 5,
            }),
    )
}

/// One session: commits random 2–4-key transactions over the keys `k00` to
/// `k<keys - 1>` until `stop`, retrying each on abort, and returns every one
/// that committed.
pub(crate) fn session(
    db: Arc<Database>,
    table: TableId,
    keys: u64,
    seed: u64,
    stop: Arc<AtomicBool>,
) -> Vec<Committed> {
    let mut rng = seed | 1;
    let mut w = db.register_worker();
    let mut committed = Vec::new();
    let mut n = 0u64;
    while !stop.load(Ordering::Relaxed) {
        n += 1;
        let mut writes: Vec<(Vec<u8>, Option<Vec<u8>>)> = Vec::new();
        for _ in 0..2 + xorshift(&mut rng) % 3 {
            let key = format!("k{:02}", xorshift(&mut rng) % keys).into_bytes();
            if writes.iter().any(|(k, _)| *k == key) {
                continue;
            }
            // A quarter of the writes delete; a later write re-inserts.
            let value = (xorshift(&mut rng) % 4 != 0)
                .then(|| format!("s{seed:x}-t{n}-{}", writes.len()).into_bytes());
            writes.push((key, value));
        }
        loop {
            let mut txn = w.begin();
            // A delete of a key the transaction sees absent writes nothing:
            // it only reads, so its TID need not order it after the key's
            // last writer, and it is kept out of the fold.
            let mut staged = Vec::with_capacity(writes.len());
            let ok = writes.iter().try_for_each(|(key, value)| {
                let wrote = match value {
                    Some(value) => txn.write(table, key, value).map(|()| true)?,
                    None => txn.delete(table, key)?,
                };
                if wrote {
                    staged.push((key.clone(), value.clone()));
                }
                Ok::<_, silo_core::Abort>(())
            });
            if ok.is_err() {
                continue;
            }
            if let Ok(tid) = txn.commit() {
                committed.push((tid, staged));
                break;
            }
        }
    }
    committed
}

/// The table the committed transactions with epoch ≤ `horizon` leave,
/// applied in TID order.
pub(crate) fn fold(committed: &mut [Committed], horizon: u64) -> BTreeMap<Vec<u8>, Vec<u8>> {
    committed.sort_by_key(|(tid, _)| *tid);
    let mut table = BTreeMap::new();
    for (_, writes) in committed.iter().filter(|(tid, _)| tid.epoch() <= horizon) {
        for (key, value) in writes {
            match value {
                Some(value) => table.insert(key.clone(), value.clone()),
                None => table.remove(key),
            };
        }
    }
    table
}
