//! Fixtures shared by the crate's tests.

use crate::{Database, SiloConfig, Worker};
use std::collections::BTreeMap;
use std::sync::Arc;

pub(crate) fn test_db() -> Arc<Database> {
    Database::open(SiloConfig::for_testing())
}

/// Advances the global epoch by `n`, marking the given workers quiescent so
/// the epoch invariant does not hold the advance back.
pub(crate) fn advance_epochs(db: &Arc<Database>, workers: &[&Worker], n: u64) {
    for w in workers {
        w.quiesce();
    }
    db.epochs().advance_n(n);
}

/// What a scan of `[start, end)` with `limit` must produce, from a model of
/// the index: every key the index holds in the range (`None` = an absent
/// record: deleted and not yet unhooked, or this transaction's own insert
/// placeholder) counts against the limit; present ones are returned with
/// `pending` (this transaction's updates and deletes) overlaid.
pub(crate) fn expected_scan(
    index: &BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    pending: &BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    start: &[u8],
    end: Option<&[u8]>,
    limit: Option<usize>,
) -> Vec<(Vec<u8>, Vec<u8>)> {
    index
        .range(start.to_vec()..)
        .take_while(|(k, _)| end.map_or(true, |e| k.as_slice() < e))
        .take(limit.unwrap_or(usize::MAX))
        .filter_map(|(k, committed)| {
            let committed = committed.as_ref()?;
            match pending.get(k) {
                Some(overlay) => overlay.clone().map(|v| (k.clone(), v)),
                None => Some((k.clone(), committed.clone())),
            }
        })
        .collect()
}
