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

use std::io::Write;

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

/// Appends a random lowercase string with length in `[min, max]` to `out`.
pub fn random_string_into(out: &mut Vec<u8>, rng: &mut SmallRng, min: usize, max: usize) {
    let len = rng.gen_range(min..=max);
    out.extend((0..len).map(|_| b'a' + rng.gen_range(0..26u8)));
}

// ---------------------------------------------------------------------------
// Loader (TPC-C clause 4.3.3, scaled)
// ---------------------------------------------------------------------------

/// One table's generated rows: each row's key and encoded value back to
/// back in one buffer, with the row's `(start, key end, end)` offsets.
#[derive(Debug, Clone, Default)]
struct Rows {
    bytes: Vec<u8>,
    spans: Vec<[usize; 3]>,
}

impl Rows {
    /// Starts a row under `key` with a zeroed value head of `head` bytes,
    /// and returns the head for the caller to fill.
    fn row(&mut self, key: &[u8], head: usize) -> &mut [u8] {
        self.close();
        let start = self.bytes.len();
        self.bytes.extend_from_slice(key);
        self.spans.push([start, self.bytes.len(), 0]);
        let at = self.bytes.len();
        self.bytes.resize(at + head, 0);
        &mut self.bytes[at..]
    }

    /// Appends a length-prefixed string to the open row, written by `fill`.
    fn string(&mut self, fill: impl FnOnce(&mut Vec<u8>)) {
        let at = self.bytes.len();
        self.bytes.extend_from_slice(&[0, 0]);
        fill(&mut self.bytes);
        let len = self.bytes.len() - at - 2;
        self.bytes[at..at + 2].copy_from_slice(&schema::string_prefix(len));
    }

    /// Records where the open row ends.
    fn close(&mut self) {
        if let Some(span) = self.spans.last_mut() {
            span[2] = self.bytes.len();
        }
    }

    /// The rows in key order.
    fn sorted(&mut self) -> impl Iterator<Item = (&[u8], &[u8])> {
        self.close();
        let bytes = &self.bytes;
        self.spans
            .sort_unstable_by(|a, b| bytes[a[0]..a[1]].cmp(&bytes[b[0]..b[1]]));
        self.spans
            .iter()
            .map(move |&[start, key_end, end]| (&bytes[start..key_end], &bytes[key_end..end]))
    }
}

/// One ORDER-LINE row: key and value, the value being all fixed-width head.
type OrderLine = ([u8; 16], [u8; OrderLineRow::HEAD]);

/// Loads the initial TPC-C population. Returns the created [`TpccTables`].
///
/// One RNG generates every row, in the order of the spec's loader, and up to
/// as many threads as the machine runs at once build the tables bottom-up
/// with [`Worker::load`] meanwhile. ORDER-LINE, the largest table, comes out
/// of the generator in key order and is built as its rows arrive. Every
/// other table is written into a buffer and handed over, to be sorted and
/// built, once its last row is written: ITEM first, the rest by size,
/// largest first.
pub fn load(db: &Arc<Database>, config: &TpccConfig) -> TpccTables {
    use rand::SeedableRng;
    use std::sync::mpsc::channel;
    let tables = TpccTables::create(db, config);
    let threads = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(tables.ids.len());
    let (handover, queue) = channel::<(TableId, Rows)>();
    let queue = &std::sync::Mutex::new(queue);
    let (lines_out, lines_in) = channel::<(TableId, Vec<OrderLine>)>();
    let mut lines_in = Some(lines_in);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let lines = lines_in.take();
            scope.spawn(move || {
                let mut worker = db.register_worker();
                if let Some(lines) = lines {
                    let mut chunks = lines.iter().peekable();
                    while let Some(&(table, _)) = chunks.peek() {
                        let rows = std::iter::from_fn(|| chunks.next_if(|(t, _)| *t == table))
                            .flat_map(|(_, chunk)| chunk);
                        worker.load(table, rows).expect("load table");
                        worker.quiesce();
                    }
                }
                loop {
                    let next = queue.lock().expect("load queue").recv();
                    let Ok((table, mut rows)) = next else { break };
                    worker.load(table, rows.sorted()).expect("load table");
                    worker.quiesce();
                }
            });
        }

        let mut rows: Vec<Rows> = vec![Rows::default(); tables.ids.len()];
        let at = |id: TableId| {
            tables
                .ids
                .iter()
                .position(|&t| t == id)
                .expect("tpcc table")
        };
        let mut rng = SmallRng::seed_from_u64(0x51C0_7ABE);

        // ITEM (global; copied to every warehouse in the per-warehouse split).
        let per_warehouse = |table: TpccTable| -> Vec<TableId> {
            let mut ids: Vec<TableId> = (1..=config.warehouses)
                .map(|w| tables.id(table, w))
                .collect();
            ids.dedup();
            ids
        };
        let item_tables = per_warehouse(TpccTable::Item);
        let mut items = Rows::default();
        for i in 1..=config.items {
            let head = items.row(&item_key(i), ItemRow::HEAD);
            ItemRow::PRICE_CENTS.set(head, rng.gen_range(100..=10_000));
            items.string(|out| write!(out, "item-{i}").expect("write to a Vec"));
            items.string(|out| {
                if rng.gen_bool(0.1) {
                    random_string_into(out, &mut rng, 4, 10);
                    out.extend_from_slice(b"ORIGINAL");
                    random_string_into(out, &mut rng, 4, 10);
                } else {
                    random_string_into(out, &mut rng, 26, 50);
                }
            });
        }
        for &table in &item_tables[1..] {
            handover.send((table, items.clone())).expect("loaders run");
        }
        handover.send((item_tables[0], items)).expect("loaders run");

        for w in 1..=config.warehouses {
            load_warehouse(
                &mut rows,
                (&lines_out, tables.id(TpccTable::OrderLine, w)),
                config,
                w,
                &mut rng,
                |t| at(tables.id(t, w)),
            );
        }
        drop(lines_out);
        let line_tables = per_warehouse(TpccTable::OrderLine);
        let mut rest: Vec<(TableId, Rows)> = tables
            .ids
            .iter()
            .copied()
            .zip(rows)
            .filter(|(id, _)| !item_tables.contains(id) && !line_tables.contains(id))
            .collect();
        rest.sort_by_key(|(_, rows)| std::cmp::Reverse(rows.spans.len()));
        for table in rest {
            handover.send(table).expect("loaders run");
        }
        drop(handover);
    });
    tables
}

/// Generates warehouse `w`'s rows; `slot` names the buffer in `rows` of each
/// table, and ORDER-LINE's rows go to `lines_out` a district at a time.
fn load_warehouse(
    rows: &mut [Rows],
    (lines_out, lines): (&std::sync::mpsc::Sender<(TableId, Vec<OrderLine>)>, TableId),
    config: &TpccConfig,
    w: u32,
    rng: &mut SmallRng,
    slot: impl FnMut(TpccTable) -> usize,
) {
    let [warehouse, stock, district, customer, names, history, new_order, order, by_customer] = [
        TpccTable::Warehouse,
        TpccTable::Stock,
        TpccTable::District,
        TpccTable::Customer,
        TpccTable::CustomerNameIndex,
        TpccTable::History,
        TpccTable::NewOrder,
        TpccTable::Order,
        TpccTable::OrderCustomerIndex,
    ]
    .map(slot);
    let head = rows[warehouse].row(&warehouse_key(w), WarehouseRow::HEAD);
    WarehouseRow::TAX_BP.set(head, rng.gen_range(0..=2000));
    WarehouseRow::YTD_CENTS.set(head, 30_000_000);
    rows[warehouse].string(|out| write!(out, "wh-{w}").expect("write to a Vec"));

    // STOCK for every item.
    for i in 1..=config.items {
        let head = rows[stock].row(&stock_key_array(w, i), StockRow::HEAD);
        StockRow::QUANTITY.set(head, rng.gen_range(10..=100));
        StockRow::DIST_INFO.set(head, [b's'; 24]);
        rows[stock].string(|out| random_string_into(out, rng, 26, 50));
    }

    for d in 1..=config.districts_per_warehouse {
        let head = rows[district].row(&district_key(w, d), DistrictRow::HEAD);
        DistrictRow::TAX_BP.set(head, rng.gen_range(0..=2000));
        DistrictRow::YTD_CENTS.set(head, 3_000_000);
        DistrictRow::NEXT_O_ID.set(head, config.initial_orders_per_district + 1);
        rows[district].string(|out| write!(out, "dist-{w}-{d}").expect("write to a Vec"));

        // Customers and the last-name index.
        for c in 1..=config.customers_per_district {
            let last = if c <= config.customers_per_district.min(1000) {
                last_name_padded(c - 1)
            } else {
                random_last_name(rng)
            };
            let last = &last[..last.iter().position(|&b| b == 0).unwrap_or(16)];
            // The first name is drawn before the head's columns.
            let mut first = [0u8; 16];
            let first_len = rng.gen_range(8..=16);
            for b in &mut first[..first_len] {
                *b = b'a' + rng.gen_range(0..26u8);
            }
            let head = rows[customer].row(&customer_key(w, d, c), CustomerRow::HEAD);
            CustomerRow::BALANCE_CENTS.set(head, -10_00);
            CustomerRow::YTD_PAYMENT_CENTS.set(head, 10_00);
            CustomerRow::PAYMENT_CNT.set(head, 1);
            CustomerRow::DISCOUNT_BP.set(head, rng.gen_range(0..=5000));
            CustomerRow::CREDIT.set(head, if rng.gen_bool(0.10) { *b"BC" } else { *b"GC" });
            rows[customer].string(|out| out.extend_from_slice(&first[..first_len]));
            rows[customer].string(|out| out.extend_from_slice(last));
            rows[customer].string(|out| random_string_into(out, rng, 50, 100));

            rows[names]
                .row(&customer_name_key(w, d, last, c), 4)
                .copy_from_slice(&c.to_le_bytes());
            let head = rows[history].row(&history_key(w, d, c, c as u64), HistoryRow::HEAD);
            HistoryRow::AMOUNT_CENTS.set(head, 10_00);
            rows[history].string(|out| random_string_into(out, rng, 12, 24));
        }

        // Initial orders: customers in a random permutation; the last third
        // are undelivered and have NEW-ORDER rows.
        let n_orders = config.initial_orders_per_district;
        let mut customer_perm: Vec<u32> = (1..=config.customers_per_district).collect();
        for i in (1..customer_perm.len()).rev() {
            let j = rng.gen_range(0..=i);
            customer_perm.swap(i, j);
        }
        let mut chunk: Vec<OrderLine> = Vec::with_capacity(n_orders as usize * 10);
        for o in 1..=n_orders {
            let c_id = customer_perm[(o as usize - 1) % customer_perm.len()];
            let ol_cnt = rng.gen_range(5..=15u32);
            let delivered = o <= n_orders - n_orders / 3;
            let head = rows[order].row(&order_key(w, d, o), OrderRow::HEAD);
            OrderRow::C_ID.set(head, c_id);
            OrderRow::ENTRY_D.set(head, o as u64);
            OrderRow::CARRIER_ID.set(head, if delivered { rng.gen_range(1..=10) } else { 0 });
            OrderRow::OL_CNT.set(head, ol_cnt);
            OrderRow::ALL_LOCAL.set(head, true);
            rows[by_customer]
                .row(&order_customer_key(w, d, c_id, o), 4)
                .copy_from_slice(&o.to_le_bytes());
            if !delivered {
                rows[new_order].row(&new_order_key(w, d, o), 0);
            }
            for ol in 1..=ol_cnt {
                let mut head = [0u8; OrderLineRow::HEAD];
                OrderLineRow::I_ID.set(&mut head, rng.gen_range(1..=config.items));
                OrderLineRow::SUPPLY_W_ID.set(&mut head, w);
                OrderLineRow::DELIVERY_D.set(&mut head, if delivered { o as u64 } else { 0 });
                OrderLineRow::QUANTITY.set(&mut head, 5);
                let amount = if delivered {
                    0
                } else {
                    rng.gen_range(1..=999_999)
                };
                OrderLineRow::AMOUNT_CENTS.set(&mut head, amount);
                OrderLineRow::DIST_INFO.set(&mut head, [b'd'; 24]);
                chunk.push((order_line_key(w, d, o, ol), head));
            }
        }
        lines_out.send((lines, chunk)).expect("loaders run");
    }
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
