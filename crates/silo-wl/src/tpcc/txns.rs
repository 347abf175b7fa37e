//! The five TPC-C transactions, implemented as one-shot requests against the
//! Silo engine (paper §3, §5.3).
//!
//! None of them touches the allocator: keys are stack arrays, rows are read
//! through [`Txn::read_with`] / [`Txn::scan_with`] as borrowed bytes and
//! their columns picked out with the schema's [`Field`] constants, and a row
//! that is written back is patched in a stack copy (`RowBuf`) of the bytes
//! that were read.

use std::fmt::Write;

use rand::rngs::SmallRng;
use rand::Rng;

use silo_core::{Abort, AbortReason, TableId, Txn, Worker};

use super::schema::*;
use super::stack::{RowBuf, StackVec};
use super::{nurand, random_last_name, TpccConfig, TpccTables, NURAND_C_C_ID, NURAND_C_OL_I_ID};

/// Longest WAREHOUSE, DISTRICT, STOCK or HISTORY row: STOCK's 44-byte head
/// plus at most 50 bytes of data.
const SMALL_ROW: usize = 128;
/// Longest CUSTOMER row: a 30-byte head, two names of at most 16 bytes and
/// data that payment caps at [`CUSTOMER_DATA_MAX`].
const CUSTOMER_ROW: usize = 384;
/// Bad-credit payments prepend to C_DATA and cut it back to this length.
const CUSTOMER_DATA_MAX: usize = 200;
/// TPC-C orders have 5 to 15 lines.
const MAX_ORDER_LINES: usize = 15;
/// Customers sharing one last name in a district that by-name selection
/// considers (it picks their middle one). At the specification's 3000
/// customers per district the most popular name has about 50.
const MAX_NAME_MATCHES: usize = 256;
/// Stock-level looks at the lines of a district's last 20 orders.
const STOCK_LEVEL_ORDERS: u32 = 20;

fn missing() -> Abort {
    Abort(AbortReason::UserRequested)
}

/// Copies the row at `key` out of the transaction, to be patched and written
/// back.
fn read_row<const N: usize>(
    txn: &mut Txn<'_>,
    table: TableId,
    key: &[u8],
) -> Result<RowBuf<N>, Abort> {
    txn.read_with(table, key, RowBuf::copy_of)?
        .ok_or_else(missing)
}

/// Reads one column of the row at `key`.
fn read_field<T: Scalar>(
    txn: &mut Txn<'_>,
    table: TableId,
    key: &[u8],
    field: Field<T>,
) -> Result<T, Abort> {
    txn.read_with(table, key, |row| field.get(row))?
        .ok_or_else(missing)
}

fn scan_prefix<const N: usize>(
    txn: &mut Txn<'_>,
    table: TableId,
    prefix: [u8; N],
    limit: Option<usize>,
    visit: impl FnMut(&[u8], &[u8]),
) -> Result<(), Abort> {
    let mut end = prefix;
    txn.scan_with(table, &prefix, prefix_end_in(&mut end), limit, visit)
}

/// The big-endian id that ends `key` (the order id of NEW-ORDER and
/// ORDER-by-customer keys, the line number of ORDER-LINE keys).
fn trailing_id(key: &[u8]) -> u32 {
    let mut id = [0u8; 4];
    id.copy_from_slice(&key[key.len() - 4..]);
    u32::from_be_bytes(id)
}

/// Selects a customer id: 60% by last name through the secondary index, 40%
/// by NURand customer id (TPC-C clause 2.5.1.2 / 2.6.1.2).
fn select_customer(
    txn: &mut Txn<'_>,
    tables: &TpccTables,
    config: &TpccConfig,
    rng: &mut SmallRng,
    w_id: u32,
    d_id: u32,
) -> Result<u32, Abort> {
    if rng.gen_bool(0.6) {
        let last = random_last_name(rng);
        let mut matches = StackVec::<u32, MAX_NAME_MATCHES>::new(0);
        let mut well_formed = true;
        scan_prefix(
            txn,
            tables.id(TpccTable::CustomerNameIndex, w_id),
            customer_name_prefix(w_id, d_id, &last),
            None,
            |_, c_id| match c_id.try_into() {
                Ok(c_id) => {
                    matches.push(u32::from_le_bytes(c_id));
                }
                Err(_) => well_formed = false,
            },
        )?;
        if !well_formed {
            return Err(missing());
        }
        if !matches.is_empty() {
            return Ok(matches[matches.len() / 2]);
        }
        // Scaled-down databases may not contain every generated name; fall
        // back to selection by id.
    }
    Ok(nurand(
        rng,
        1023,
        NURAND_C_C_ID,
        1,
        config.customers_per_district,
    ))
}

/// The new-order transaction (TPC-C clause 2.4). Returns the order id.
///
/// With `config.fast_ids` the order id is generated by a separate, immediately
/// committed transaction (the `MemSilo+FastIds` variant of Figure 9), which
/// removes the district-counter conflict at the cost of gaps in the id space.
pub fn new_order(
    worker: &mut Worker,
    tables: &TpccTables,
    config: &TpccConfig,
    rng: &mut SmallRng,
    w_id: u32,
) -> Result<u32, Abort> {
    let d_id = rng.gen_range(1..=config.districts_per_warehouse);
    let c_id = nurand(rng, 1023, NURAND_C_C_ID, 1, config.customers_per_district);
    let ol_cnt = rng.gen_range(5..=15u32);
    let rollback = rng.gen_range(1..=100u32) == 1;

    // Choose the items up front (one-shot request model: all parameters are
    // available when the request begins, §3).
    let mut lines = StackVec::<(u32, u32, u32), MAX_ORDER_LINES>::new((0, 0, 0));
    for _ in 0..ol_cnt {
        let i_id = nurand(rng, 8191, NURAND_C_OL_I_ID, 1, config.items);
        let remote = config.warehouses > 1 && rng.gen_bool(config.remote_item_probability);
        let supply_w = if remote {
            let mut other = rng.gen_range(1..=config.warehouses);
            while other == w_id && config.warehouses > 1 {
                other = rng.gen_range(1..=config.warehouses);
            }
            other
        } else {
            w_id
        };
        let quantity = rng.gen_range(1..=10u32);
        lines.push((i_id, supply_w, quantity));
    }

    // FastIds: allocate the order id in its own transaction.
    let fast_o_id = if config.fast_ids {
        let mut txn = worker.begin();
        let dk = district_key(w_id, d_id);
        let district_table = tables.id(TpccTable::District, w_id);
        let mut district: RowBuf<SMALL_ROW> = read_row(&mut txn, district_table, &dk)?;
        let o_id = DistrictRow::NEXT_O_ID.get(&district);
        DistrictRow::NEXT_O_ID.set(&mut district, o_id + 1);
        txn.write(district_table, &dk, &district)?;
        txn.commit()?;
        Some(o_id)
    } else {
        None
    };

    let mut txn = worker.begin();
    let result = new_order_body(
        &mut txn, tables, w_id, d_id, c_id, &lines, rollback, fast_o_id,
    );
    match result {
        Ok(o_id) => {
            txn.commit()?;
            Ok(o_id)
        }
        Err(e) => {
            txn.abort();
            Err(e)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn new_order_body(
    txn: &mut Txn<'_>,
    tables: &TpccTables,
    w_id: u32,
    d_id: u32,
    c_id: u32,
    lines: &[(u32, u32, u32)],
    rollback: bool,
    fast_o_id: Option<u32>,
) -> Result<u32, Abort> {
    let district_table = tables.id(TpccTable::District, w_id);
    let item_table = tables.item_table(w_id);
    let home_stock_table = tables.id(TpccTable::Stock, w_id);
    let order_line_table = tables.id(TpccTable::OrderLine, w_id);

    let warehouse_tax_bp = read_field(
        txn,
        tables.id(TpccTable::Warehouse, w_id),
        &warehouse_key(w_id),
        WarehouseRow::TAX_BP,
    )?;
    let discount_bp = read_field(
        txn,
        tables.id(TpccTable::Customer, w_id),
        &customer_key(w_id, d_id, c_id),
        CustomerRow::DISCOUNT_BP,
    )?;

    // Read the district; unless FastIds already allocated the id, increment
    // D_NEXT_O_ID here (this is the contended counter of Figure 9).
    let dk = district_key(w_id, d_id);
    let mut district: RowBuf<SMALL_ROW> = read_row(txn, district_table, &dk)?;
    let district_tax_bp = DistrictRow::TAX_BP.get(&district);
    let o_id = match fast_o_id {
        Some(o_id) => o_id,
        None => {
            let o_id = DistrictRow::NEXT_O_ID.get(&district);
            DistrictRow::NEXT_O_ID.set(&mut district, o_id + 1);
            txn.write(district_table, &dk, &district)?;
            o_id
        }
    };

    let all_local = lines.iter().all(|(_, supply_w, _)| *supply_w == w_id);
    let order = OrderRow {
        c_id,
        entry_d: o_id as u64,
        carrier_id: 0,
        ol_cnt: lines.len() as u32,
        all_local,
    };
    txn.insert(
        tables.id(TpccTable::Order, w_id),
        &order_key(w_id, d_id, o_id),
        &order.encode_head(),
    )?;
    txn.insert(
        tables.id(TpccTable::NewOrder, w_id),
        &new_order_key(w_id, d_id, o_id),
        &[],
    )?;
    txn.insert(
        tables.id(TpccTable::OrderCustomerIndex, w_id),
        &order_customer_key(w_id, d_id, c_id, o_id),
        &o_id.to_le_bytes(),
    )?;

    let mut total_cents = 0u64;
    for (ol_number, &(i_id, supply_w, quantity)) in lines.iter().enumerate() {
        if rollback && ol_number == lines.len() - 1 {
            // TPC-C clause 2.4.1.4: 1% of new-order transactions use an
            // invalid item id and must roll back.
            return Err(Abort(AbortReason::UserRequested));
        }
        let price_cents = read_field(txn, item_table, &item_key(i_id), ItemRow::PRICE_CENTS)?;

        let stock_table = if supply_w == w_id {
            home_stock_table
        } else {
            tables.id(TpccTable::Stock, supply_w)
        };
        let sk = stock_key_array(supply_w, i_id);
        let mut stock: RowBuf<SMALL_ROW> = read_row(txn, stock_table, &sk)?;
        StockRow::QUANTITY.update(&mut stock, |on_hand| {
            // Replenish by 91 when fewer than 10 would be left.
            let left = on_hand - quantity as i32;
            if left >= 10 {
                left
            } else {
                left + 91
            }
        });
        StockRow::YTD.update(&mut stock, |ytd| ytd + quantity as u64);
        StockRow::ORDER_CNT.update(&mut stock, |n| n + 1);
        if supply_w != w_id {
            StockRow::REMOTE_CNT.update(&mut stock, |n| n + 1);
        }
        txn.write(stock_table, &sk, &stock)?;

        let amount_cents = quantity as u64 * price_cents;
        total_cents += amount_cents;
        let line = OrderLineRow {
            i_id,
            supply_w_id: supply_w,
            delivery_d: 0,
            quantity,
            amount_cents,
            dist_info: StockRow::DIST_INFO.get(&stock),
        };
        txn.insert(
            order_line_table,
            &order_line_key(w_id, d_id, o_id, ol_number as u32 + 1),
            &line.encode_head(),
        )?;
    }

    // The total is computed (W_TAX, D_TAX, C_DISCOUNT) but not stored, as in
    // TPC-C; keep the arithmetic so the compiler cannot remove the reads.
    let _total = total_cents as f64
        * (1.0 + (warehouse_tax_bp + district_tax_bp) as f64 / 10_000.0)
        * (1.0 - discount_bp as f64 / 10_000.0);
    Ok(o_id)
}

/// The payment transaction (TPC-C clause 2.5).
pub fn payment(
    worker: &mut Worker,
    tables: &TpccTables,
    config: &TpccConfig,
    rng: &mut SmallRng,
    w_id: u32,
) -> Result<(), Abort> {
    let d_id = rng.gen_range(1..=config.districts_per_warehouse);
    let amount_cents = rng.gen_range(100..=500_000u64);
    // 15% of payments are made by a customer of a remote warehouse.
    let (c_w_id, c_d_id) =
        if config.warehouses > 1 && rng.gen_bool(config.remote_payment_probability) {
            let mut other = rng.gen_range(1..=config.warehouses);
            while other == w_id {
                other = rng.gen_range(1..=config.warehouses);
            }
            (other, rng.gen_range(1..=config.districts_per_warehouse))
        } else {
            (w_id, d_id)
        };

    let mut txn = worker.begin();
    let outcome = (|| -> Result<(), Abort> {
        let warehouse_table = tables.id(TpccTable::Warehouse, w_id);
        let wk = warehouse_key(w_id);
        let mut warehouse: RowBuf<SMALL_ROW> = read_row(&mut txn, warehouse_table, &wk)?;
        WarehouseRow::YTD_CENTS.update(&mut warehouse, |ytd| ytd + amount_cents);
        txn.write(warehouse_table, &wk, &warehouse)?;

        let district_table = tables.id(TpccTable::District, w_id);
        let dk = district_key(w_id, d_id);
        let mut district: RowBuf<SMALL_ROW> = read_row(&mut txn, district_table, &dk)?;
        DistrictRow::YTD_CENTS.update(&mut district, |ytd| ytd + amount_cents);
        txn.write(district_table, &dk, &district)?;

        let c_id = select_customer(&mut txn, tables, config, rng, c_w_id, c_d_id)?;
        let customer_table = tables.id(TpccTable::Customer, c_w_id);
        let ck = customer_key(c_w_id, c_d_id, c_id);
        let mut customer: RowBuf<CUSTOMER_ROW> = read_row(&mut txn, customer_table, &ck)?;
        CustomerRow::BALANCE_CENTS.update(&mut customer, |b| b - amount_cents as i64);
        CustomerRow::YTD_PAYMENT_CENTS.update(&mut customer, |ytd| ytd + amount_cents);
        CustomerRow::PAYMENT_CNT.update(&mut customer, |n| n + 1);
        if &CustomerRow::CREDIT.get(&customer) == b"BC" {
            // Bad credit: C_DATA, the row's last string, gets this payment
            // prepended and is cut back to its maximum length.
            let [_, _, data] = strings(&customer, CustomerRow::HEAD);
            let mut extra = RowBuf::<SMALL_ROW>::new(0);
            write!(
                extra,
                "{c_id}:{c_d_id}:{c_w_id}:{d_id}:{w_id}:{amount_cents};"
            )
            .expect("six integers fit");
            let kept = data.len().min(CUSTOMER_DATA_MAX - extra.len());
            let mut rebuilt = RowBuf::<CUSTOMER_ROW>::new(0);
            rebuilt.extend(&customer[..customer.len() - data.len() - 2]);
            rebuilt.put_str(&[&extra, &data[..kept]]);
            customer = rebuilt;
        }
        txn.write(customer_table, &ck, &customer)?;

        // H_DATE stays 0.
        let mut history = RowBuf::<SMALL_ROW>::copy_of(&[0; HistoryRow::HEAD]);
        HistoryRow::AMOUNT_CENTS.set(&mut history, amount_cents);
        let [warehouse_name] = strings(&warehouse, WarehouseRow::HEAD);
        let [district_name] = strings(&district, DistrictRow::HEAD);
        history.put_str(&[warehouse_name, b" ", district_name]);
        let seq: u64 = rng.gen();
        txn.insert(
            tables.id(TpccTable::History, w_id),
            &history_key(c_w_id, c_d_id, c_id, seq),
            &history,
        )?;
        Ok(())
    })();
    match outcome {
        Ok(()) => {
            txn.commit()?;
            Ok(())
        }
        Err(e) => {
            txn.abort();
            Err(e)
        }
    }
}

/// The order-status transaction (TPC-C clause 2.6, read only).
pub fn order_status(
    worker: &mut Worker,
    tables: &TpccTables,
    config: &TpccConfig,
    rng: &mut SmallRng,
    w_id: u32,
) -> Result<(), Abort> {
    let d_id = rng.gen_range(1..=config.districts_per_warehouse);
    let mut txn = worker.begin();
    let outcome = (|| -> Result<(), Abort> {
        let c_id = select_customer(&mut txn, tables, config, rng, w_id, d_id)?;
        txn.read_with(
            tables.id(TpccTable::Customer, w_id),
            &customer_key(w_id, d_id, c_id),
            |_| (),
        )?
        .ok_or_else(missing)?;
        // Most recent order of this customer: last entry of the secondary
        // index prefix scan.
        let mut last_o_id = None;
        scan_prefix(
            &mut txn,
            tables.id(TpccTable::OrderCustomerIndex, w_id),
            order_customer_prefix(w_id, d_id, c_id),
            None,
            |key, _| last_o_id = Some(trailing_id(key)),
        )?;
        let Some(o_id) = last_o_id else {
            return Ok(()); // customer has no orders yet
        };
        let ol_cnt = read_field(
            &mut txn,
            tables.id(TpccTable::Order, w_id),
            &order_key(w_id, d_id, o_id),
            OrderRow::OL_CNT,
        )?;
        let (mut lines, mut quantity) = (0u32, 0u32);
        scan_prefix(
            &mut txn,
            tables.id(TpccTable::OrderLine, w_id),
            order_line_prefix(w_id, d_id, o_id),
            None,
            |_, line| {
                lines += 1;
                quantity += OrderLineRow::QUANTITY.get(line);
            },
        )?;
        debug_assert!(lines <= ol_cnt + 15);
        std::hint::black_box(quantity);
        Ok(())
    })();
    match outcome {
        Ok(()) => {
            txn.commit()?;
            Ok(())
        }
        Err(e) => {
            txn.abort();
            Err(e)
        }
    }
}

/// The delivery transaction (TPC-C clause 2.7): delivers the oldest
/// undelivered order of every district of the warehouse.
pub fn delivery(
    worker: &mut Worker,
    tables: &TpccTables,
    config: &TpccConfig,
    rng: &mut SmallRng,
    w_id: u32,
) -> Result<(), Abort> {
    let carrier_id = rng.gen_range(1..=10u32);
    let new_order_table = tables.id(TpccTable::NewOrder, w_id);
    let order_table = tables.id(TpccTable::Order, w_id);
    let line_table = tables.id(TpccTable::OrderLine, w_id);
    let customer_table = tables.id(TpccTable::Customer, w_id);
    let mut txn = worker.begin();
    let outcome = (|| -> Result<(), Abort> {
        for d_id in 1..=config.districts_per_warehouse {
            let mut oldest = None;
            scan_prefix(
                &mut txn,
                new_order_table,
                new_order_district_prefix(w_id, d_id),
                Some(1),
                |key, _| oldest = Some(trailing_id(key)),
            )?;
            let Some(o_id) = oldest else {
                continue; // no undelivered orders in this district
            };
            txn.delete(new_order_table, &new_order_key(w_id, d_id, o_id))?;

            let ok = order_key(w_id, d_id, o_id);
            let mut order: RowBuf<{ OrderRow::HEAD }> = read_row(&mut txn, order_table, &ok)?;
            OrderRow::CARRIER_ID.set(&mut order, carrier_id);
            txn.write(order_table, &ok, &order)?;

            // The scan lends the lines out; they are written back after it.
            let mut lines = StackVec::<(u32, [u8; OrderLineRow::HEAD]), MAX_ORDER_LINES>::new((
                0,
                [0; OrderLineRow::HEAD],
            ));
            let mut all_buffered = true;
            scan_prefix(
                &mut txn,
                line_table,
                order_line_prefix(w_id, d_id, o_id),
                None,
                |key, line| {
                    all_buffered &= line
                        .try_into()
                        .is_ok_and(|line| lines.push((trailing_id(key), line)));
                },
            )?;
            if !all_buffered {
                return Err(missing());
            }
            let mut amount_sum = 0u64;
            for (ol_number, line) in lines.iter_mut() {
                amount_sum += OrderLineRow::AMOUNT_CENTS.get(line);
                OrderLineRow::DELIVERY_D.set(line, 1);
                txn.write(
                    line_table,
                    &order_line_key(w_id, d_id, o_id, *ol_number),
                    line,
                )?;
            }

            let ck = customer_key(w_id, d_id, OrderRow::C_ID.get(&order));
            let mut customer: RowBuf<CUSTOMER_ROW> = read_row(&mut txn, customer_table, &ck)?;
            CustomerRow::BALANCE_CENTS.update(&mut customer, |b| b + amount_sum as i64);
            CustomerRow::DELIVERY_CNT.update(&mut customer, |n| n + 1);
            txn.write(customer_table, &ck, &customer)?;
        }
        Ok(())
    })();
    match outcome {
        Ok(()) => {
            txn.commit()?;
            Ok(())
        }
        Err(e) => {
            txn.abort();
            Err(e)
        }
    }
}

/// The item ids on the order lines stock-level examines.
type StockLevelItems = StackVec<u32, { STOCK_LEVEL_ORDERS as usize * MAX_ORDER_LINES }>;

/// Counts the distinct ids in `item_ids` for which `below_threshold` holds.
fn count_low_stock(
    item_ids: &mut [u32],
    mut below_threshold: impl FnMut(u32) -> Result<bool, Abort>,
) -> Result<usize, Abort> {
    item_ids.sort_unstable();
    let mut low_stock = 0;
    let mut previous = None;
    for &i_id in item_ids.iter() {
        if previous != Some(i_id) && below_threshold(i_id)? {
            low_stock += 1;
        }
        previous = Some(i_id);
    }
    Ok(low_stock)
}

/// The stock-level transaction (TPC-C clause 2.8, read only): counts the
/// distinct items of the district's last 20 orders whose stock is below a
/// threshold. In the paper this is the transaction that benefits from
/// snapshot execution (Figure 10); `config.stock_level_on_snapshot` selects
/// between the snapshot and the regular execution path.
pub fn stock_level(
    worker: &mut Worker,
    tables: &TpccTables,
    config: &TpccConfig,
    rng: &mut SmallRng,
    w_id: u32,
) -> Result<usize, Abort> {
    let d_id = rng.gen_range(1..=config.districts_per_warehouse);
    let threshold: i32 = rng.gen_range(10..=20);
    let district_table = tables.id(TpccTable::District, w_id);
    let line_table = tables.id(TpccTable::OrderLine, w_id);
    let stock_table = tables.id(TpccTable::Stock, w_id);
    let dk = district_key(w_id, d_id);
    let line_range = |next_o_id: u32| {
        let low = next_o_id.saturating_sub(STOCK_LEVEL_ORDERS);
        (
            order_line_key(w_id, d_id, low, 0),
            order_line_key(w_id, d_id, next_o_id, 0),
        )
    };
    let mut item_ids = StockLevelItems::new(0);

    if config.stock_level_on_snapshot {
        // Snapshot transactions never abort (§4.9).
        let mut snap = worker.begin_snapshot();
        let Some(next_o_id) =
            snap.read_with(district_table, &dk, |row| DistrictRow::NEXT_O_ID.get(row))
        else {
            return Ok(0); // snapshot predates the load; nothing to count yet
        };
        let (start, end) = line_range(next_o_id);
        snap.scan_with(line_table, &start, Some(&end), None, |_, line| {
            item_ids.push(OrderLineRow::I_ID.get(line));
        });
        return count_low_stock(&mut item_ids, |i_id| {
            let below = snap.read_with(stock_table, &stock_key_array(w_id, i_id), |row| {
                StockRow::QUANTITY.get(row) < threshold
            });
            Ok(below == Some(true))
        });
    }

    let mut txn = worker.begin();
    let outcome = (|| -> Result<usize, Abort> {
        let next_o_id = read_field(&mut txn, district_table, &dk, DistrictRow::NEXT_O_ID)?;
        let (start, end) = line_range(next_o_id);
        txn.scan_with(line_table, &start, Some(&end), None, |_, line| {
            item_ids.push(OrderLineRow::I_ID.get(line));
        })?;
        count_low_stock(&mut item_ids, |i_id| {
            let below = txn.read_with(stock_table, &stock_key_array(w_id, i_id), |row| {
                StockRow::QUANTITY.get(row) < threshold
            })?;
            Ok(below == Some(true))
        })
    })();
    match outcome {
        Ok(count) => {
            txn.commit()?;
            Ok(count)
        }
        Err(e) => {
            txn.abort();
            Err(e)
        }
    }
}
