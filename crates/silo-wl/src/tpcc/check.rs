//! TPC-C consistency conditions (clause 3.3.2), checked against a live
//! database.
//!
//! The checks mirror the ones the `tpcc_consistency` integration test always
//! ran after a concurrent mix, packaged as a library function so the
//! crash-recovery gate can run the *same* invariants against a database
//! rebuilt from a checkpoint + log tail: a recovered state that passes them
//! is transaction-consistent, which is exactly what epoch-based recovery
//! (paper §4.10) promises — the durable prefix of the run, never a torn one.

use std::sync::Arc;

use silo_core::Database;

use super::schema::{self, DistrictRow, OrderRow, TpccTable};
use super::{TpccConfig, TpccTables};

/// What [`check_consistency`] verified, for reporting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConsistencySummary {
    /// Districts checked (C1 holds in each).
    pub districts: u64,
    /// ORDER rows scanned across all districts.
    pub orders: u64,
    /// Pending NEW-ORDER rows cross-checked against ORDER rows (C3).
    pub pending_new_orders: u64,
    /// Recent orders whose ORDER-LINE counts were verified (C4).
    pub order_line_checks: u64,
}

/// Verifies the adapted TPC-C consistency conditions 1, 3 and 4 on every
/// district:
///
/// * **C1**: `D_NEXT_O_ID − 1 == max(O_ID)` over the district's ORDER rows;
/// * **C3**: every NEW-ORDER row has a matching, undelivered ORDER row;
/// * **C4**: for the most recent orders, the number of ORDER-LINE rows equals
///   `O_OL_CNT`.
///
/// Runs in a single read-only transaction, so it must be called while no
/// writers are active (after a driver run, or after recovery). Returns what
/// was checked, or a description of the first violated invariant.
pub fn check_consistency(
    db: &Arc<Database>,
    cfg: &TpccConfig,
    tables: &TpccTables,
) -> Result<ConsistencySummary, String> {
    let mut summary = ConsistencySummary::default();
    let mut worker = db.register_worker();
    let mut txn = worker.begin();
    let fail = |msg: String| -> Result<ConsistencySummary, String> { Err(msg) };
    for w in 1..=cfg.warehouses {
        for d in 1..=cfg.districts_per_warehouse {
            let district_raw = txn
                .read(
                    tables.id(TpccTable::District, w),
                    &schema::district_key(w, d),
                )
                .map_err(|e| format!("district read aborted at w={w} d={d}: {e}"))?
                .ok_or_else(|| format!("district row missing at w={w} d={d}"))?;
            let district = DistrictRow::decode(&district_raw);

            // C1: D_NEXT_O_ID - 1 = max(O_ID).
            let orders = txn
                .scan(
                    tables.id(TpccTable::Order, w),
                    &schema::order_key(w, d, 0),
                    Some(&schema::order_key(w, d, u32::MAX)),
                    None,
                )
                .map_err(|e| format!("order scan aborted at w={w} d={d}: {e}"))?;
            summary.orders += orders.len() as u64;
            let max_o_id = orders
                .iter()
                .map(|(k, _)| u32::from_be_bytes(k[k.len() - 4..].try_into().unwrap()))
                .max()
                .unwrap_or(0);
            if district.next_o_id - 1 != max_o_id {
                return fail(format!(
                    "C1 violated at w={w} d={d}: D_NEXT_O_ID-1={} but max(O_ID)={max_o_id}",
                    district.next_o_id - 1
                ));
            }

            // C3 (adapted): every NEW-ORDER row has a matching undelivered
            // ORDER row.
            let pending = txn
                .scan(
                    tables.id(TpccTable::NewOrder, w),
                    &schema::new_order_district_prefix(w, d),
                    schema::prefix_end(&schema::new_order_district_prefix(w, d)).as_deref(),
                    None,
                )
                .map_err(|e| format!("new-order scan aborted at w={w} d={d}: {e}"))?;
            for (no_key, _) in &pending {
                let o_id = u32::from_be_bytes(no_key[no_key.len() - 4..].try_into().unwrap());
                let order_raw = txn
                    .read(
                        tables.id(TpccTable::Order, w),
                        &schema::order_key(w, d, o_id),
                    )
                    .map_err(|e| format!("order read aborted at w={w} d={d} o={o_id}: {e}"))?;
                let Some(order_raw) = order_raw else {
                    return fail(format!(
                        "C3 violated at w={w} d={d}: NEW-ORDER {o_id} has no ORDER row"
                    ));
                };
                if OrderRow::decode(&order_raw).carrier_id != 0 {
                    return fail(format!(
                        "C3 violated at w={w} d={d}: pending order {o_id} already delivered"
                    ));
                }
                summary.pending_new_orders += 1;
            }

            // C4 (adapted): for recent orders, ORDER-LINE count = O_OL_CNT.
            for (k, raw) in orders.iter().rev().take(3) {
                let o_id = u32::from_be_bytes(k[k.len() - 4..].try_into().unwrap());
                let order = OrderRow::decode(raw);
                let prefix = schema::order_line_prefix(w, d, o_id);
                let lines = txn
                    .scan(
                        tables.id(TpccTable::OrderLine, w),
                        &prefix,
                        schema::prefix_end(&prefix).as_deref(),
                        None,
                    )
                    .map_err(|e| format!("order-line scan aborted at w={w} d={d} o={o_id}: {e}"))?;
                if lines.len() as u32 != order.ol_cnt {
                    return fail(format!(
                        "C4 violated at w={w} d={d} o={o_id}: {} order-lines but O_OL_CNT={}",
                        lines.len(),
                        order.ol_cnt
                    ));
                }
                summary.order_line_checks += 1;
            }
            summary.districts += 1;
        }
    }
    txn.commit()
        .map_err(|e| format!("consistency check transaction failed to commit: {e}"))?;
    Ok(summary)
}
