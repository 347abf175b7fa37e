//! A full TPC-C implementation on top of the Silo engine (paper §5.3–§5.5).
//!
//! The module provides the schema ([`schema`]), the initial-population loader
//! ([`load`]), the five TPC-C transactions ([`txns`]), and [`TpccWorkload`],
//! a [`crate::driver::Workload`] running a configurable transaction mix with
//! the knobs the paper's experiments vary:
//!
//! * `remote_item_probability` — probability that a new-order line is
//!   supplied by a remote warehouse (swept in Figure 8);
//! * `fast_ids` — generate new-order ids in a separate transaction
//!   (`MemSilo+FastIds`, Figure 9);
//! * `stock_level_on_snapshot` — run stock-level as a read-only snapshot
//!   transaction or as a regular transaction (`MemSilo+NoSS`, Figure 10);
//! * [`TableSplit::PerWarehouse`] — physically split every table per
//!   warehouse (`MemSilo+Split`, Figure 8).

pub mod check;
pub mod schema;
mod stack;
pub mod txns;

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;

use silo_core::{Database, TableId, Worker};

use crate::driver::Workload;
use schema::*;

/// Scale and behaviour knobs for TPC-C.
#[derive(Debug, Clone)]
pub struct TpccConfig {
    /// Number of warehouses.
    pub warehouses: u32,
    /// Districts per warehouse (TPC-C specifies 10).
    pub districts_per_warehouse: u32,
    /// Customers per district (TPC-C specifies 3000; scale down for small
    /// machines / tests).
    pub customers_per_district: u32,
    /// Initially loaded orders per district (TPC-C specifies 3000).
    pub initial_orders_per_district: u32,
    /// Number of items (TPC-C specifies 100 000).
    pub items: u32,
    /// Probability that a single new-order line draws from a remote
    /// warehouse (TPC-C specifies 0.01; Figure 8 sweeps it).
    pub remote_item_probability: f64,
    /// Probability that payment pays through a remote warehouse (TPC-C: 0.15).
    pub remote_payment_probability: f64,
    /// Generate new-order ids in a separate transaction (`MemSilo+FastIds`).
    pub fast_ids: bool,
    /// Run stock-level on a snapshot (`MemSilo` in Fig. 10) or as a regular
    /// read/write transaction (`MemSilo+NoSS`).
    pub stock_level_on_snapshot: bool,
    /// Physical table layout.
    pub split: TableSplit,
    /// Transaction mix.
    pub mix: TpccMix,
}

impl Default for TpccConfig {
    fn default() -> Self {
        TpccConfig {
            warehouses: 1,
            districts_per_warehouse: 10,
            customers_per_district: 300,
            initial_orders_per_district: 300,
            items: 1000,
            remote_item_probability: 0.01,
            remote_payment_probability: 0.15,
            fast_ids: false,
            stock_level_on_snapshot: true,
            split: TableSplit::Shared,
            mix: TpccMix::standard(),
        }
    }
}

impl TpccConfig {
    /// A configuration small enough for unit tests.
    pub fn tiny() -> Self {
        TpccConfig {
            warehouses: 2,
            districts_per_warehouse: 2,
            customers_per_district: 20,
            initial_orders_per_district: 20,
            items: 50,
            ..Default::default()
        }
    }

    /// Paper-style scaling: warehouses = workers, other dimensions at the
    /// given fraction of the spec sizes (1.0 = full TPC-C).
    pub fn scaled(warehouses: u32, scale: f64) -> Self {
        let s = |spec: u32| ((spec as f64 * scale).round() as u32).max(1);
        TpccConfig {
            warehouses,
            districts_per_warehouse: 10,
            customers_per_district: s(3000),
            initial_orders_per_district: s(3000),
            items: s(100_000),
            ..Default::default()
        }
    }
}

/// How tables are physically laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableSplit {
    /// One shared tree per table (Silo's default shared-memory design).
    Shared,
    /// One tree per (table, warehouse) — the `MemSilo+Split` variant of
    /// Figure 8 (everything else, including the commit protocol, unchanged).
    PerWarehouse,
}

/// The TPC-C transaction mix, in percent (must sum to 100).
#[derive(Debug, Clone, Copy)]
pub struct TpccMix {
    /// New-order percentage.
    pub new_order: u32,
    /// Payment percentage.
    pub payment: u32,
    /// Order-status percentage.
    pub order_status: u32,
    /// Delivery percentage.
    pub delivery: u32,
    /// Stock-level percentage.
    pub stock_level: u32,
}

impl TpccMix {
    /// The standard TPC-C mix (45/43/4/4/4).
    pub fn standard() -> Self {
        TpccMix {
            new_order: 45,
            payment: 43,
            order_status: 4,
            delivery: 4,
            stock_level: 4,
        }
    }

    /// 100% new-order (Figures 8 and 9).
    pub fn new_order_only() -> Self {
        TpccMix {
            new_order: 100,
            payment: 0,
            order_status: 0,
            delivery: 0,
            stock_level: 0,
        }
    }

    /// 50% new-order / 50% stock-level (Figure 10).
    pub fn new_order_stock_level() -> Self {
        TpccMix {
            new_order: 50,
            payment: 0,
            order_status: 0,
            delivery: 0,
            stock_level: 50,
        }
    }

    fn pick(&self, rng: &mut SmallRng) -> TxnKind {
        let total =
            self.new_order + self.payment + self.order_status + self.delivery + self.stock_level;
        debug_assert_eq!(total, 100);
        let r = rng.gen_range(0..total);
        if r < self.new_order {
            TxnKind::NewOrder
        } else if r < self.new_order + self.payment {
            TxnKind::Payment
        } else if r < self.new_order + self.payment + self.order_status {
            TxnKind::OrderStatus
        } else if r < self.new_order + self.payment + self.order_status + self.delivery {
            TxnKind::Delivery
        } else {
            TxnKind::StockLevel
        }
    }
}

/// The five TPC-C transaction types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnKind {
    /// New-order.
    NewOrder,
    /// Payment.
    Payment,
    /// Order-status (read only).
    OrderStatus,
    /// Delivery.
    Delivery,
    /// Stock-level (read only).
    StockLevel,
}

/// Catalog handles for the TPC-C tables, shared or per-warehouse.
#[derive(Debug, Clone)]
pub struct TpccTables {
    split: TableSplit,
    /// `Shared`: one id per table. `PerWarehouse`: `warehouses × 11` ids,
    /// row-major by warehouse.
    ids: Vec<TableId>,
    warehouses: u32,
}

impl TpccTables {
    /// Creates the catalog tables for the given configuration.
    pub fn create(db: &Arc<Database>, config: &TpccConfig) -> TpccTables {
        let mut ids = Vec::new();
        match config.split {
            TableSplit::Shared => {
                for table in ALL_TABLES {
                    ids.push(db.create_table(table.name()).expect("create table"));
                }
            }
            TableSplit::PerWarehouse => {
                for w in 1..=config.warehouses {
                    for table in ALL_TABLES {
                        ids.push(
                            db.create_table(&format!("{}@w{}", table.name(), w))
                                .expect("create table"),
                        );
                    }
                }
            }
        }
        TpccTables {
            split: config.split,
            ids,
            warehouses: config.warehouses,
        }
    }

    /// Resolves the table id holding rows of `table` for warehouse `w_id`.
    pub fn id(&self, table: TpccTable, w_id: u32) -> TableId {
        match self.split {
            TableSplit::Shared => self.ids[table.index()],
            TableSplit::PerWarehouse => {
                debug_assert!(w_id >= 1 && w_id <= self.warehouses);
                self.ids[(w_id as usize - 1) * ALL_TABLES.len() + table.index()]
            }
        }
    }

    /// The item table is conceptually global; by convention warehouse 1's
    /// copy is used in the per-warehouse split (items are read-only).
    pub fn item_table(&self, w_id: u32) -> TableId {
        match self.split {
            TableSplit::Shared => self.id(TpccTable::Item, 1),
            TableSplit::PerWarehouse => self.id(TpccTable::Item, w_id),
        }
    }
}

// ---------------------------------------------------------------------------
// TPC-C random helpers (clause 2.1.6)
// ---------------------------------------------------------------------------

/// Constant `C` used by NURand for customer-id selection.
pub const NURAND_C_C_ID: u32 = 259;
/// Constant `C` used by NURand for item-id selection.
pub const NURAND_C_OL_I_ID: u32 = 7911;
/// Constant `C` used by NURand for last-name selection.
pub const NURAND_C_C_LAST: u32 = 223;

/// TPC-C non-uniform random distribution.
pub fn nurand(rng: &mut SmallRng, a: u32, c: u32, x: u32, y: u32) -> u32 {
    (((rng.gen_range(0..=a) | rng.gen_range(x..=y)) + c) % (y - x + 1)) + x
}

const NAME_SYLLABLES: [&str; 10] = [
    "BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
];

/// Builds a TPC-C customer last name from a number in `0..=999`, zero-padded
/// to the 16 bytes the last-name index key gives it (names are at most 15).
pub fn last_name_padded(num: u32) -> [u8; 16] {
    let num = num % 1000;
    let mut name = [0u8; 16];
    let mut len = 0;
    for digit in [num / 100, (num / 10) % 10, num % 10] {
        let syllable = NAME_SYLLABLES[digit as usize].as_bytes();
        name[len..len + syllable.len()].copy_from_slice(syllable);
        len += syllable.len();
    }
    name
}

fn name_string(padded: &[u8; 16]) -> String {
    let len = padded.iter().position(|&b| b == 0).unwrap_or(padded.len());
    String::from_utf8_lossy(&padded[..len]).into_owned()
}

/// Builds a TPC-C customer last name from a number in `0..=999`.
pub fn last_name(num: u32) -> String {
    name_string(&last_name_padded(num))
}

/// A random last name for transaction input (`NURand(255, 0, 999)`), padded
/// as [`last_name_padded`] does.
pub fn random_last_name(rng: &mut SmallRng) -> [u8; 16] {
    last_name_padded(nurand(rng, 255, NURAND_C_C_LAST, 0, 999))
}

/// A random alphanumeric string with length in `[min, max]`.
pub fn random_string(rng: &mut SmallRng, min: usize, max: usize) -> String {
    let len = rng.gen_range(min..=max);
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
        .collect()
}

// ---------------------------------------------------------------------------
// Loader (TPC-C clause 4.3.3, scaled)
// ---------------------------------------------------------------------------

/// Loads the initial TPC-C population. Returns the created [`TpccTables`].
pub fn load(db: &Arc<Database>, config: &TpccConfig) -> TpccTables {
    use rand::SeedableRng;
    let tables = TpccTables::create(db, config);
    let mut worker = db.register_worker();
    let mut rng = SmallRng::seed_from_u64(0x51C0_7ABE);

    // ITEM (global).
    {
        let mut txn = worker.begin();
        let mut in_txn = 0;
        for i in 1..=config.items {
            let item = ItemRow {
                name: format!("item-{i}"),
                price_cents: rng.gen_range(100..=10_000),
                data: if rng.gen_bool(0.1) {
                    format!(
                        "{}ORIGINAL{}",
                        random_string(&mut rng, 4, 10),
                        random_string(&mut rng, 4, 10)
                    )
                } else {
                    random_string(&mut rng, 26, 50)
                },
            };
            match config.split {
                TableSplit::Shared => {
                    txn.write(tables.item_table(1), &item_key(i), &item.encode())
                        .expect("load item");
                }
                TableSplit::PerWarehouse => {
                    for w in 1..=config.warehouses {
                        txn.write(tables.item_table(w), &item_key(i), &item.encode())
                            .expect("load item");
                    }
                }
            }
            in_txn += 1;
            if in_txn >= 512 {
                txn.commit().expect("load commit");
                txn = worker.begin();
                in_txn = 0;
            }
        }
        txn.commit().expect("load commit");
    }

    for w in 1..=config.warehouses {
        load_warehouse(&mut worker, &tables, config, w, &mut rng);
    }
    drop(worker);
    tables
}

fn load_warehouse(
    worker: &mut Worker,
    tables: &TpccTables,
    config: &TpccConfig,
    w: u32,
    rng: &mut SmallRng,
) {
    let mut txn = worker.begin();
    let mut in_txn = 0usize;
    macro_rules! put {
        ($table:expr, $key:expr, $value:expr) => {{
            txn.write($table, &$key, &$value).expect("load write");
            in_txn += 1;
            if in_txn >= 512 {
                txn.commit().expect("load commit");
                txn = worker.begin();
                in_txn = 0;
            }
        }};
    }

    let warehouse = WarehouseRow {
        name: format!("wh-{w}"),
        tax_bp: rng.gen_range(0..=2000),
        ytd_cents: 30_000_000,
    };
    put!(
        tables.id(TpccTable::Warehouse, w),
        warehouse_key(w),
        warehouse.encode()
    );

    // STOCK for every item.
    for i in 1..=config.items {
        let stock = StockRow {
            quantity: rng.gen_range(10..=100),
            ytd: 0,
            order_cnt: 0,
            remote_cnt: 0,
            dist_info: [b's'; 24],
            data: random_string(rng, 26, 50),
        };
        put!(
            tables.id(TpccTable::Stock, w),
            stock_key(w, i),
            stock.encode()
        );
    }

    for d in 1..=config.districts_per_warehouse {
        let district = DistrictRow {
            name: format!("dist-{w}-{d}"),
            tax_bp: rng.gen_range(0..=2000),
            ytd_cents: 3_000_000,
            next_o_id: config.initial_orders_per_district + 1,
        };
        put!(
            tables.id(TpccTable::District, w),
            district_key(w, d),
            district.encode()
        );

        // Customers and the last-name index.
        for c in 1..=config.customers_per_district {
            let last = if c <= config.customers_per_district.min(1000) {
                last_name(c - 1)
            } else {
                name_string(&random_last_name(rng))
            };
            let customer = CustomerRow {
                first: random_string(rng, 8, 16),
                last: last.clone(),
                balance_cents: -10_00,
                ytd_payment_cents: 10_00,
                payment_cnt: 1,
                delivery_cnt: 0,
                discount_bp: rng.gen_range(0..=5000),
                credit: if rng.gen_bool(0.10) { *b"BC" } else { *b"GC" },
                data: random_string(rng, 50, 100),
            };
            put!(
                tables.id(TpccTable::Customer, w),
                customer_key(w, d, c),
                customer.encode()
            );
            put!(
                tables.id(TpccTable::CustomerNameIndex, w),
                customer_name_key(w, d, last.as_bytes(), c),
                c.to_le_bytes()
            );
            let history = HistoryRow {
                amount_cents: 10_00,
                date: 0,
                data: random_string(rng, 12, 24),
            };
            put!(
                tables.id(TpccTable::History, w),
                history_key(w, d, c, c as u64),
                history.encode()
            );
        }

        // Initial orders: customers in a random permutation; the last third
        // are undelivered and have NEW-ORDER rows.
        let n_orders = config.initial_orders_per_district;
        let mut customer_perm: Vec<u32> = (1..=config.customers_per_district).collect();
        for i in (1..customer_perm.len()).rev() {
            let j = rng.gen_range(0..=i);
            customer_perm.swap(i, j);
        }
        for o in 1..=n_orders {
            let c_id = customer_perm[(o as usize - 1) % customer_perm.len()];
            let ol_cnt = rng.gen_range(5..=15u32);
            let delivered = o <= n_orders - n_orders / 3;
            let order = OrderRow {
                c_id,
                entry_d: o as u64,
                carrier_id: if delivered { rng.gen_range(1..=10) } else { 0 },
                ol_cnt,
                all_local: true,
            };
            put!(
                tables.id(TpccTable::Order, w),
                order_key(w, d, o),
                order.encode()
            );
            put!(
                tables.id(TpccTable::OrderCustomerIndex, w),
                order_customer_key(w, d, c_id, o),
                o.to_le_bytes()
            );
            if !delivered {
                put!(
                    tables.id(TpccTable::NewOrder, w),
                    new_order_key(w, d, o),
                    Vec::new()
                );
            }
            for ol in 1..=ol_cnt {
                let line = OrderLineRow {
                    i_id: rng.gen_range(1..=config.items),
                    supply_w_id: w,
                    delivery_d: if delivered { o as u64 } else { 0 },
                    quantity: 5,
                    amount_cents: if delivered {
                        0
                    } else {
                        rng.gen_range(1..=999_999)
                    },
                    dist_info: [b'd'; 24],
                };
                put!(
                    tables.id(TpccTable::OrderLine, w),
                    order_line_key(w, d, o, ol),
                    line.encode()
                );
            }
        }
    }
    txn.commit().expect("load commit");
}

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

/// The TPC-C workload: picks a transaction from the mix and runs it against
/// the thread's home warehouse.
pub struct TpccWorkload {
    config: TpccConfig,
    tables: TpccTables,
}

impl TpccWorkload {
    /// Creates the workload over loaded tables.
    pub fn new(config: TpccConfig, tables: TpccTables) -> Self {
        TpccWorkload { config, tables }
    }

    /// The configuration this workload runs with.
    pub fn config(&self) -> &TpccConfig {
        &self.config
    }

    /// The catalog handles.
    pub fn tables(&self) -> &TpccTables {
        &self.tables
    }

    /// The home warehouse for a driver thread (clients of a warehouse are
    /// assigned to the same thread, §5.3).
    pub fn home_warehouse(&self, thread_index: usize) -> u32 {
        (thread_index as u32 % self.config.warehouses) + 1
    }
}

impl Workload for TpccWorkload {
    fn run_one(&self, worker: &mut Worker, rng: &mut SmallRng, thread_index: usize) -> bool {
        let w_id = self.home_warehouse(thread_index);
        let kind = self.config.mix.pick(rng);
        let result = match kind {
            TxnKind::NewOrder => {
                txns::new_order(worker, &self.tables, &self.config, rng, w_id).map(|_| ())
            }
            TxnKind::Payment => txns::payment(worker, &self.tables, &self.config, rng, w_id),
            TxnKind::OrderStatus => {
                txns::order_status(worker, &self.tables, &self.config, rng, w_id)
            }
            TxnKind::Delivery => txns::delivery(worker, &self.tables, &self.config, rng, w_id),
            TxnKind::StockLevel => {
                txns::stock_level(worker, &self.tables, &self.config, rng, w_id).map(|_| ())
            }
        };
        result.is_ok()
    }
}

#[cfg(test)]
mod tests;
