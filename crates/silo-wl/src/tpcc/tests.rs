//! TPC-C tests: loading, individual transactions, consistency invariants and
//! the full mix under the driver.

use super::*;
use crate::driver::RunOptions;
use rand::SeedableRng;
use silo_core::{Database, SiloConfig};
use std::time::Duration;

fn tpcc_db() -> Arc<Database> {
    Database::open(SiloConfig::for_testing().with_spawn_epoch_advancer(true))
}

fn rng() -> SmallRng {
    SmallRng::seed_from_u64(42)
}

#[test]
fn loader_populates_all_tables() {
    let db = tpcc_db();
    let cfg = TpccConfig::tiny();
    let tables = load(&db, &cfg);

    assert_eq!(
        db.table(tables.id(TpccTable::Warehouse, 1))
            .approximate_len() as u32,
        cfg.warehouses
    );
    assert_eq!(
        db.table(tables.id(TpccTable::District, 1))
            .approximate_len() as u32,
        cfg.warehouses * cfg.districts_per_warehouse
    );
    assert_eq!(
        db.table(tables.id(TpccTable::Customer, 1))
            .approximate_len() as u32,
        cfg.warehouses * cfg.districts_per_warehouse * cfg.customers_per_district
    );
    assert_eq!(
        db.table(tables.item_table(1)).approximate_len() as u32,
        cfg.items
    );
    assert_eq!(
        db.table(tables.id(TpccTable::Stock, 1)).approximate_len() as u32,
        cfg.warehouses * cfg.items
    );
    assert_eq!(
        db.table(tables.id(TpccTable::Order, 1)).approximate_len() as u32,
        cfg.warehouses * cfg.districts_per_warehouse * cfg.initial_orders_per_district
    );
    // A third of the initial orders are undelivered.
    let new_orders = db
        .table(tables.id(TpccTable::NewOrder, 1))
        .approximate_len() as u32;
    assert_eq!(
        new_orders,
        cfg.warehouses * cfg.districts_per_warehouse * (cfg.initial_orders_per_district / 3)
    );
    db.stop_epoch_advancer();
}

/// FNV-1a 64 over every row of `db` — tables in id order, rows in key
/// order, each row's key bytes then its value bytes — and the row count.
fn population_hash(db: &Arc<Database>) -> (u64, usize) {
    let mut ids = db.table_ids();
    ids.sort_unstable();
    let mut worker = db.register_worker();
    let (mut hash, mut rows) = (0xcbf2_9ce4_8422_2325u64, 0);
    for t in ids {
        let mut txn = worker.begin();
        for (key, value) in txn.scan(t, b"", None, None).unwrap() {
            for &b in key.iter().chain(&value) {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            rows += 1;
        }
        txn.commit().unwrap();
    }
    (hash, rows)
}

#[test]
fn loader_population_is_unchanged() {
    for (cfg, expected) in [
        (TpccConfig::tiny(), (0x4f70_342a_710b_d010, 1_360)),
        (TpccConfig::scaled(2, 0.05), (0xa3e1_e8cd_779b_f0db, 61_063)),
        (
            TpccConfig {
                split: TableSplit::PerWarehouse,
                ..TpccConfig::tiny()
            },
            (0x98f1_5cea_3a6a_3117, 1_410),
        ),
    ] {
        let db = tpcc_db();
        load(&db, &cfg);
        let got = population_hash(&db);
        db.stop_epoch_advancer();
        assert_eq!(got, expected, "{cfg:?}: got {:#x}", got.0);
    }
}

#[test]
fn loaded_index_is_no_wider_or_deeper_than_inserts_built_it() {
    // Inserting the same population in 512-row transactions left 4 835
    // leaves, and no table deeper than four levels.
    let db = tpcc_db();
    load(&db, &TpccConfig::scaled(2, 0.05));
    let stats = db.index_stats();
    db.stop_epoch_advancer();
    assert_eq!(stats.entries, 61_063);
    assert!(stats.leaves <= 4_835, "{stats:?}");
    assert!(stats.max_btree_depth <= 4, "{stats:?}");
}

#[test]
fn per_warehouse_split_separates_tables() {
    let db = tpcc_db();
    let cfg = TpccConfig {
        split: TableSplit::PerWarehouse,
        ..TpccConfig::tiny()
    };
    let tables = load(&db, &cfg);
    assert_ne!(
        tables.id(TpccTable::Stock, 1),
        tables.id(TpccTable::Stock, 2),
        "split mode must give each warehouse its own tree"
    );
    assert_eq!(
        db.table(tables.id(TpccTable::Stock, 1)).approximate_len() as u32,
        cfg.items
    );
    assert_eq!(
        db.table(tables.id(TpccTable::Warehouse, 2))
            .approximate_len(),
        1
    );
    db.stop_epoch_advancer();
}

#[test]
fn new_order_creates_order_rows_and_bumps_district_counter() {
    let db = tpcc_db();
    let cfg = TpccConfig::tiny();
    let tables = load(&db, &cfg);
    let mut worker = db.register_worker();
    let mut r = rng();

    let orders_before = db.table(tables.id(TpccTable::Order, 1)).approximate_len();
    let mut committed = 0;
    for _ in 0..20 {
        if txns::new_order(&mut worker, &tables, &cfg, &mut r, 1).is_ok() {
            committed += 1;
        }
    }
    assert!(committed > 0, "most new-order transactions should commit");
    let orders_after = db.table(tables.id(TpccTable::Order, 1)).approximate_len();
    assert_eq!(orders_after - orders_before, committed);

    // The district counter advanced by exactly the number of commits (no
    // FastIds, so ids are contiguous).
    let mut txn = worker.begin();
    let mut next_ids = 0u32;
    for d in 1..=cfg.districts_per_warehouse {
        let raw = txn
            .read(
                tables.id(TpccTable::District, 1),
                &schema::district_key(1, d),
            )
            .unwrap()
            .unwrap();
        next_ids += DistrictRow::decode(&raw).next_o_id - (cfg.initial_orders_per_district + 1);
    }
    txn.commit().unwrap();
    assert_eq!(next_ids as usize, committed);
    db.stop_epoch_advancer();
}

#[test]
fn payment_updates_balances_and_ytd() {
    let db = tpcc_db();
    let cfg = TpccConfig::tiny();
    let tables = load(&db, &cfg);
    let mut worker = db.register_worker();
    let mut r = rng();

    let read_w_ytd = |worker: &mut silo_core::Worker| {
        let mut txn = worker.begin();
        let raw = txn
            .read(
                tables.id(TpccTable::Warehouse, 1),
                &schema::warehouse_key(1),
            )
            .unwrap()
            .unwrap();
        let ytd = WarehouseRow::decode(&raw).ytd_cents;
        txn.commit().unwrap();
        ytd
    };
    let before = read_w_ytd(&mut worker);
    let mut committed = 0;
    for _ in 0..10 {
        if txns::payment(&mut worker, &tables, &cfg, &mut r, 1).is_ok() {
            committed += 1;
        }
    }
    assert!(committed > 0);
    // Some payments may have gone to warehouse 2's customers, but W_YTD of the
    // home warehouse grows with every committed payment issued at warehouse 1.
    assert!(read_w_ytd(&mut worker) > before);
    db.stop_epoch_advancer();
}

#[test]
fn order_status_and_stock_level_are_read_only() {
    let db = tpcc_db();
    let cfg = TpccConfig::tiny();
    let tables = load(&db, &cfg);
    let mut worker = db.register_worker();
    let mut r = rng();

    let commits_before = worker.stats().commits;
    for _ in 0..10 {
        txns::order_status(&mut worker, &tables, &cfg, &mut r, 1).unwrap();
    }
    // Regular-transaction stock level (NoSS variant).
    let cfg_noss = TpccConfig {
        stock_level_on_snapshot: false,
        ..cfg.clone()
    };
    for _ in 0..10 {
        let count = txns::stock_level(&mut worker, &tables, &cfg_noss, &mut r, 1).unwrap();
        let _ = count;
    }
    assert!(worker.stats().commits >= commits_before + 20);
    db.stop_epoch_advancer();
}

#[test]
fn stock_level_on_snapshot_never_aborts() {
    let db = tpcc_db();
    let cfg = TpccConfig::tiny();
    let tables = load(&db, &cfg);
    let mut worker = db.register_worker();
    let mut r = rng();
    let aborts_before = worker.stats().aborts;
    for _ in 0..20 {
        txns::stock_level(&mut worker, &tables, &cfg, &mut r, 1).unwrap();
    }
    assert_eq!(worker.stats().aborts, aborts_before);
    assert!(worker.stats().snapshot_commits >= 20);
    db.stop_epoch_advancer();
}

#[test]
fn delivery_consumes_new_orders() {
    let db = tpcc_db();
    let cfg = TpccConfig::tiny();
    let tables = load(&db, &cfg);
    let mut worker = db.register_worker();
    let mut r = rng();

    let pending_before = db
        .table(tables.id(TpccTable::NewOrder, 1))
        .approximate_len();
    assert!(pending_before > 0);
    txns::delivery(&mut worker, &tables, &cfg, &mut r, 1).unwrap();
    // Deleted NEW-ORDER rows stay as absent records until GC, so count via a
    // transactionally consistent scan instead of the raw tree size.
    let mut txn = worker.begin();
    let remaining = txn
        .scan(tables.id(TpccTable::NewOrder, 1), b"", None, None)
        .unwrap()
        .len();
    txn.commit().unwrap();
    assert_eq!(
        remaining,
        pending_before - cfg.districts_per_warehouse as usize,
        "one new-order per district must be delivered"
    );
    db.stop_epoch_advancer();
}

#[test]
fn fast_ids_variant_still_creates_orders() {
    let db = tpcc_db();
    let cfg = TpccConfig {
        fast_ids: true,
        ..TpccConfig::tiny()
    };
    let tables = load(&db, &cfg);
    let mut worker = db.register_worker();
    let mut r = rng();
    let before = db.table(tables.id(TpccTable::Order, 1)).approximate_len();
    let mut committed = 0;
    for _ in 0..10 {
        if txns::new_order(&mut worker, &tables, &cfg, &mut r, 1).is_ok() {
            committed += 1;
        }
    }
    assert!(committed > 0);
    assert_eq!(
        db.table(tables.id(TpccTable::Order, 1)).approximate_len() - before,
        committed
    );
    db.stop_epoch_advancer();
}

#[test]
fn standard_mix_runs_under_the_driver() {
    let db = tpcc_db();
    let cfg = TpccConfig::tiny();
    let tables = load(&db, &cfg);
    let workload = Arc::new(TpccWorkload::new(cfg, tables));
    let result = RunOptions::default()
        .with_threads(2)
        .with_duration(Duration::from_millis(200))
        .run(&db, workload);
    assert!(result.committed > 0, "the mix should commit transactions");
    db.stop_epoch_advancer();
}

#[test]
fn consistency_invariants_hold_after_concurrent_mix() {
    // TPC-C consistency condition 1 (adapted): for every district,
    // D_NEXT_O_ID - 1 equals the maximum O_ID in the ORDER table, and every
    // order has between 5 and 15 order lines matching its O_OL_CNT.
    let db = tpcc_db();
    let cfg = TpccConfig::tiny();
    let tables = load(&db, &cfg);
    let workload = Arc::new(TpccWorkload::new(cfg.clone(), tables.clone()));
    let _ = RunOptions::default()
        .with_threads(2)
        .with_duration(Duration::from_millis(300))
        .run(&db, workload);

    let mut worker = db.register_worker();
    let mut txn = worker.begin();
    for w in 1..=cfg.warehouses {
        for d in 1..=cfg.districts_per_warehouse {
            let raw = txn
                .read(
                    tables.id(TpccTable::District, w),
                    &schema::district_key(w, d),
                )
                .unwrap()
                .unwrap();
            let district = DistrictRow::decode(&raw);
            // Largest order id in the ORDER table for this district.
            let orders = txn
                .scan(
                    tables.id(TpccTable::Order, w),
                    &schema::order_key(w, d, 0),
                    Some(&schema::order_key(w, d, u32::MAX)),
                    None,
                )
                .unwrap();
            let max_o_id = orders
                .iter()
                .map(|(k, _)| u32::from_be_bytes(k[k.len() - 4..].try_into().unwrap()))
                .max()
                .unwrap_or(0);
            assert_eq!(
                district.next_o_id - 1,
                max_o_id,
                "D_NEXT_O_ID must track the largest order id (w={w}, d={d})"
            );
            // Order-line counts match O_OL_CNT.
            for (k, raw) in orders.iter().rev().take(5) {
                let o_id = u32::from_be_bytes(k[k.len() - 4..].try_into().unwrap());
                let order = OrderRow::decode(raw);
                let lines = txn
                    .scan(
                        tables.id(TpccTable::OrderLine, w),
                        &schema::order_line_prefix(w, d, o_id),
                        schema::prefix_end(&schema::order_line_prefix(w, d, o_id)).as_deref(),
                        None,
                    )
                    .unwrap();
                assert_eq!(lines.len() as u32, order.ol_cnt, "order lines match ol_cnt");
            }
        }
    }
    txn.commit().unwrap();
    db.stop_epoch_advancer();
}

#[test]
fn nurand_and_last_name_follow_spec_shapes() {
    let mut r = rng();
    for _ in 0..1000 {
        let v = nurand(&mut r, 1023, NURAND_C_C_ID, 1, 3000);
        assert!((1..=3000).contains(&v));
        let i = nurand(&mut r, 8191, NURAND_C_OL_I_ID, 1, 100_000);
        assert!((1..=100_000).contains(&i));
    }
    assert_eq!(last_name(0), "BARBARBAR");
    assert_eq!(last_name(371), "PRICALLYOUGHT");
    assert_eq!(last_name(999), "EINGEINGEING");
    assert_eq!(last_name(1371), last_name(371));
}

#[test]
fn mix_percentages_select_all_kinds() {
    let mix = TpccMix::standard();
    let mut r = rng();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..2000 {
        seen.insert(mix.pick(&mut r));
    }
    assert_eq!(
        seen.len(),
        5,
        "standard mix must exercise all five transactions"
    );
    let no_only = TpccMix::new_order_only();
    for _ in 0..100 {
        assert_eq!(no_only.pick(&mut r), TxnKind::NewOrder);
    }
}
