//! The **Partitioned-Store** baseline (paper §5.4), modeled on
//! H-Store/VoltDB: the database is physically partitioned by warehouse, each
//! partition is a set of single-threaded trees with **no record-level
//! concurrency control**, and every transaction first acquires the partition
//! locks it needs (in sorted order). Single-partition transactions therefore
//! run without any fine-grained synchronization; cross-partition transactions
//! serialize on whole-partition locks.
//!
//! Only the new-order transaction is implemented — Figures 8 and 9 run a
//! 100% new-order mix — plus the loader, mirroring the paper's setup.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::tpcc::schema::*;
use crate::tpcc::{nurand, TpccConfig, NURAND_C_C_ID, NURAND_C_OL_I_ID};

/// One warehouse partition: every TPC-C table restricted to that warehouse,
/// stored in plain ordered maps with no concurrency control (the partition
/// lock provides all the isolation, as in H-Store).
#[derive(Debug, Default)]
pub struct Partition {
    tables: Vec<BTreeMap<Vec<u8>, Vec<u8>>>,
}

impl Partition {
    fn new() -> Self {
        Partition {
            tables: (0..ALL_TABLES.len()).map(|_| BTreeMap::new()).collect(),
        }
    }

    /// Read a key from one of the partition's tables.
    pub fn get(&self, table: TpccTable, key: &[u8]) -> Option<&Vec<u8>> {
        self.tables[table.index()].get(key)
    }

    /// Insert or overwrite a key.
    pub fn put(&mut self, table: TpccTable, key: impl Into<Vec<u8>>, value: Vec<u8>) {
        self.tables[table.index()].insert(key.into(), value);
    }

    /// Number of keys in one of the partition's tables.
    pub fn len(&self, table: TpccTable) -> usize {
        self.tables[table.index()].len()
    }
}

/// The partitioned store: one lock-protected [`Partition`] per warehouse.
pub struct PartitionedStore {
    config: TpccConfig,
    partitions: Vec<Mutex<Partition>>,
}

/// Statistics from a partitioned-store run.
#[derive(Debug, Default, Clone)]
pub struct PartitionedStats {
    /// Committed new-order transactions.
    pub committed: u64,
    /// Intentional rollbacks (1% invalid item).
    pub rolled_back: u64,
    /// Transactions that touched more than one partition.
    pub cross_partition: u64,
}

impl PartitionedStore {
    /// Creates and loads a partitioned store for the given configuration.
    pub fn load(config: &TpccConfig) -> Arc<Self> {
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(0x9A127);
        let store = PartitionedStore {
            config: config.clone(),
            partitions: (0..config.warehouses)
                .map(|_| Mutex::new(Partition::new()))
                .collect(),
        };
        for w in 1..=config.warehouses {
            let mut p = store.partitions[w as usize - 1].lock();
            // Items are replicated into every partition (they are read-only).
            for i in 1..=config.items {
                let item = ItemRow {
                    name: format!("item-{i}"),
                    price_cents: rng.gen_range(100..=10_000),
                    data: "partitioned".into(),
                };
                p.put(TpccTable::Item, item_key(i), item.encode());
                let stock = StockRow {
                    quantity: rng.gen_range(10..=100),
                    ytd: 0,
                    order_cnt: 0,
                    remote_cnt: 0,
                    dist_info: [b's'; 24],
                    data: "stock".into(),
                };
                p.put(TpccTable::Stock, stock_key(w, i), stock.encode());
            }
            let warehouse = WarehouseRow {
                name: format!("wh-{w}"),
                tax_bp: 1000,
                ytd_cents: 0,
            };
            p.put(TpccTable::Warehouse, warehouse_key(w), warehouse.encode());
            for d in 1..=config.districts_per_warehouse {
                let district = DistrictRow {
                    name: format!("d-{d}"),
                    tax_bp: 1000,
                    ytd_cents: 0,
                    next_o_id: 1,
                };
                p.put(TpccTable::District, district_key(w, d), district.encode());
                for c in 1..=config.customers_per_district {
                    let customer = CustomerRow {
                        first: "FIRST".into(),
                        last: super::tpcc::last_name(c % 1000),
                        balance_cents: 0,
                        ytd_payment_cents: 0,
                        payment_cnt: 0,
                        delivery_cnt: 0,
                        discount_bp: 500,
                        credit: *b"GC",
                        data: String::new(),
                    };
                    p.put(
                        TpccTable::Customer,
                        customer_key(w, d, c),
                        customer.encode(),
                    );
                }
            }
        }
        Arc::new(store)
    }

    /// The configuration used to build the store.
    pub fn config(&self) -> &TpccConfig {
        &self.config
    }

    /// Total number of orders across all partitions (diagnostics).
    pub fn total_orders(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| p.lock().len(TpccTable::Order))
            .sum()
    }

    /// Runs one new-order transaction from home warehouse `w_id`.
    ///
    /// Acquires all required partition locks in sorted order, then executes
    /// without any further synchronization or validation — the H-Store
    /// execution model.
    pub fn new_order(&self, rng: &mut SmallRng, w_id: u32, stats: &mut PartitionedStats) -> bool {
        let config = &self.config;
        let d_id = rng.gen_range(1..=config.districts_per_warehouse);
        let c_id = nurand(rng, 1023, NURAND_C_C_ID, 1, config.customers_per_district);
        let ol_cnt = rng.gen_range(5..=15u32);
        let rollback = rng.gen_range(1..=100u32) == 1;

        let mut lines = Vec::with_capacity(ol_cnt as usize);
        for _ in 0..ol_cnt {
            let i_id = nurand(rng, 8191, NURAND_C_OL_I_ID, 1, config.items);
            let remote = config.warehouses > 1 && rng.gen_bool(config.remote_item_probability);
            let supply_w = if remote {
                let mut other = rng.gen_range(1..=config.warehouses);
                while other == w_id {
                    other = rng.gen_range(1..=config.warehouses);
                }
                other
            } else {
                w_id
            };
            lines.push((i_id, supply_w, rng.gen_range(1..=10u32)));
        }

        // Partition lock set, in sorted order (deadlock freedom).
        let mut needed: Vec<u32> = lines.iter().map(|(_, w, _)| *w).chain([w_id]).collect();
        needed.sort_unstable();
        needed.dedup();
        if needed.len() > 1 {
            stats.cross_partition += 1;
        }
        let mut guards: Vec<(u32, parking_lot::MutexGuard<'_, Partition>)> = needed
            .iter()
            .map(|w| (*w, self.partitions[*w as usize - 1].lock()))
            .collect();

        // Everything below runs as in a single-threaded store.
        let home_index = guards
            .iter()
            .position(|(w, _)| *w == w_id)
            .expect("home locked");

        if rollback {
            stats.rolled_back += 1;
            return false;
        }

        let (o_id, customer_discount, warehouse_tax, district_tax) = {
            let home = &mut guards[home_index].1;
            let warehouse = WarehouseRow::decode(
                home.get(TpccTable::Warehouse, &warehouse_key(w_id))
                    .expect("warehouse"),
            );
            let customer = CustomerRow::decode(
                home.get(TpccTable::Customer, &customer_key(w_id, d_id, c_id))
                    .expect("customer"),
            );
            let dk = district_key(w_id, d_id);
            let mut district =
                DistrictRow::decode(home.get(TpccTable::District, &dk).expect("district"));
            let o_id = district.next_o_id;
            district.next_o_id += 1;
            home.put(TpccTable::District, dk, district.encode());
            let order = OrderRow {
                c_id,
                entry_d: o_id as u64,
                carrier_id: 0,
                ol_cnt,
                all_local: lines.iter().all(|(_, w, _)| *w == w_id),
            };
            home.put(
                TpccTable::Order,
                order_key(w_id, d_id, o_id),
                order.encode(),
            );
            home.put(
                TpccTable::NewOrder,
                new_order_key(w_id, d_id, o_id),
                Vec::new(),
            );
            home.put(
                TpccTable::OrderCustomerIndex,
                order_customer_key(w_id, d_id, c_id, o_id),
                o_id.to_le_bytes().to_vec(),
            );
            (
                o_id,
                customer.discount_bp,
                warehouse.tax_bp,
                district.tax_bp,
            )
        };

        let mut total_cents = 0u64;
        for (ol_number, (i_id, supply_w, quantity)) in lines.iter().enumerate() {
            let supply_index = guards
                .iter()
                .position(|(w, _)| w == supply_w)
                .expect("supply locked");
            let price_cents = {
                let part = &guards[supply_index].1;
                ItemRow::decode(part.get(TpccTable::Item, &item_key(*i_id)).expect("item"))
                    .price_cents
            };
            {
                let part = &mut guards[supply_index].1;
                let sk = stock_key(*supply_w, *i_id);
                let mut stock = StockRow::decode(part.get(TpccTable::Stock, &sk).expect("stock"));
                stock.quantity = if stock.quantity >= *quantity as i32 + 10 {
                    stock.quantity - *quantity as i32
                } else {
                    stock.quantity - *quantity as i32 + 91
                };
                stock.ytd += *quantity as u64;
                stock.order_cnt += 1;
                if supply_w != &w_id {
                    stock.remote_cnt += 1;
                }
                part.put(TpccTable::Stock, sk, stock.encode());
            }
            let amount_cents = *quantity as u64 * price_cents;
            total_cents += amount_cents;
            let line = OrderLineRow {
                i_id: *i_id,
                supply_w_id: *supply_w,
                delivery_d: 0,
                quantity: *quantity,
                amount_cents,
                dist_info: [b'd'; 24],
            };
            let home = &mut guards[home_index].1;
            home.put(
                TpccTable::OrderLine,
                order_line_key(w_id, d_id, o_id, ol_number as u32 + 1),
                line.encode(),
            );
        }
        let _total = total_cents as f64
            * (1.0 + (warehouse_tax + district_tax) as f64 / 10_000.0)
            * (1.0 - customer_discount as f64 / 10_000.0);
        stats.committed += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tiny() -> TpccConfig {
        TpccConfig {
            warehouses: 2,
            districts_per_warehouse: 2,
            customers_per_district: 20,
            items: 50,
            remote_item_probability: 0.5,
            ..TpccConfig::tiny()
        }
    }

    #[test]
    fn load_populates_partitions() {
        let store = PartitionedStore::load(&tiny());
        let p = store.partitions[0].lock();
        assert_eq!(p.len(TpccTable::Item), 50);
        assert_eq!(p.len(TpccTable::Stock), 50);
        assert_eq!(p.len(TpccTable::Customer), 40);
        assert_eq!(p.len(TpccTable::District), 2);
    }

    #[test]
    fn new_order_commits_and_tracks_cross_partition() {
        let store = PartitionedStore::load(&tiny());
        let mut rng = SmallRng::seed_from_u64(7);
        let mut stats = PartitionedStats::default();
        for _ in 0..100 {
            store.new_order(&mut rng, 1, &mut stats);
        }
        assert!(stats.committed > 50);
        assert!(
            stats.cross_partition > 0,
            "50% remote probability must cross partitions"
        );
        assert_eq!(store.total_orders() as u64, stats.committed);
    }

    #[test]
    fn concurrent_single_partition_new_orders_do_not_interfere() {
        let mut cfg = tiny();
        cfg.remote_item_probability = 0.0;
        let store = PartitionedStore::load(&cfg);
        let mut handles = Vec::new();
        for t in 0..2u32 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t as u64);
                let mut stats = PartitionedStats::default();
                for _ in 0..200 {
                    store.new_order(&mut rng, t + 1, &mut stats);
                }
                stats.committed
            }));
        }
        let committed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(store.total_orders() as u64, committed);
    }
}
