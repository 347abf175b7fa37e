//! TPC-C schema: key encodings and row (record value) encodings.
//!
//! Keys are big-endian compositions of the table's primary-key columns so the
//! B+-tree's byte order matches the logical order (the property the range
//! transactions — delivery, order-status, stock-level — rely on), built as
//! stack arrays. Rows are a fixed-width little-endian head followed by
//! length-prefixed strings; each row type declares that layout once (see
//! `row!`), and both the owned `encode`/`decode` and the [`Field`] accessors
//! the transactions use on borrowed bytes come from that one declaration.

/// The nine TPC-C base tables plus the two secondary indexes Silo maintains
/// explicitly (§4.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpccTable {
    /// WAREHOUSE
    Warehouse,
    /// DISTRICT
    District,
    /// CUSTOMER
    Customer,
    /// Secondary index: (w, d, last name, c_id) → c_id
    CustomerNameIndex,
    /// HISTORY
    History,
    /// NEW-ORDER
    NewOrder,
    /// ORDER
    Order,
    /// Secondary index: (w, d, c_id, o_id) → o_id
    OrderCustomerIndex,
    /// ORDER-LINE
    OrderLine,
    /// ITEM
    Item,
    /// STOCK
    Stock,
}

/// All TPC-C tables in declaration order.
pub const ALL_TABLES: [TpccTable; 11] = [
    TpccTable::Warehouse,
    TpccTable::District,
    TpccTable::Customer,
    TpccTable::CustomerNameIndex,
    TpccTable::History,
    TpccTable::NewOrder,
    TpccTable::Order,
    TpccTable::OrderCustomerIndex,
    TpccTable::OrderLine,
    TpccTable::Item,
    TpccTable::Stock,
];

impl TpccTable {
    /// Stable name used for catalog table names.
    pub fn name(&self) -> &'static str {
        match self {
            TpccTable::Warehouse => "warehouse",
            TpccTable::District => "district",
            TpccTable::Customer => "customer",
            TpccTable::CustomerNameIndex => "customer_name_idx",
            TpccTable::History => "history",
            TpccTable::NewOrder => "new_order",
            TpccTable::Order => "oorder",
            TpccTable::OrderCustomerIndex => "order_customer_idx",
            TpccTable::OrderLine => "order_line",
            TpccTable::Item => "item",
            TpccTable::Stock => "stock",
        }
    }

    /// Index of this table within [`ALL_TABLES`]: its discriminant.
    pub fn index(&self) -> usize {
        *self as usize
    }
}

// ---------------------------------------------------------------------------
// Key encodings
// ---------------------------------------------------------------------------

/// Concatenates big-endian `u32` columns into an `N = 4 × C`-byte key.
fn be_key<const C: usize, const N: usize>(columns: [u32; C]) -> [u8; N] {
    debug_assert_eq!(N, 4 * C);
    let mut key = [0u8; N];
    for (bytes, column) in key.chunks_exact_mut(4).zip(columns) {
        bytes.copy_from_slice(&column.to_be_bytes());
    }
    key
}

/// WAREHOUSE primary key.
pub fn warehouse_key(w_id: u32) -> [u8; 4] {
    be_key([w_id])
}

/// DISTRICT primary key.
pub fn district_key(w_id: u32, d_id: u32) -> [u8; 8] {
    be_key([w_id, d_id])
}

/// CUSTOMER primary key.
pub fn customer_key(w_id: u32, d_id: u32, c_id: u32) -> [u8; 12] {
    be_key([w_id, d_id, c_id])
}

/// CUSTOMER last-name secondary index key; `last` is zero-padded (or cut) to
/// 16 bytes.
pub fn customer_name_key(w_id: u32, d_id: u32, last: &[u8], c_id: u32) -> [u8; 28] {
    let mut k = [0u8; 28];
    k[..24].copy_from_slice(&customer_name_prefix(w_id, d_id, last));
    k[24..].copy_from_slice(&c_id.to_be_bytes());
    k
}

/// Prefix of the CUSTOMER last-name index for a given name.
pub fn customer_name_prefix(w_id: u32, d_id: u32, last: &[u8]) -> [u8; 24] {
    let mut k = [0u8; 24];
    k[..8].copy_from_slice(&district_key(w_id, d_id));
    let n = last.len().min(16);
    k[8..8 + n].copy_from_slice(&last[..n]);
    k
}

/// HISTORY primary key (TPC-C history has no key; a per-insert unique
/// sequence keeps entries distinct).
pub fn history_key(w_id: u32, d_id: u32, c_id: u32, seq: u64) -> [u8; 20] {
    be_key([w_id, d_id, c_id, (seq >> 32) as u32, seq as u32])
}

/// NEW-ORDER primary key.
pub fn new_order_key(w_id: u32, d_id: u32, o_id: u32) -> [u8; 12] {
    be_key([w_id, d_id, o_id])
}

/// Prefix covering every NEW-ORDER row of a district.
pub fn new_order_district_prefix(w_id: u32, d_id: u32) -> [u8; 8] {
    district_key(w_id, d_id)
}

/// ORDER primary key.
pub fn order_key(w_id: u32, d_id: u32, o_id: u32) -> [u8; 12] {
    new_order_key(w_id, d_id, o_id)
}

/// ORDER-by-customer secondary index key.
pub fn order_customer_key(w_id: u32, d_id: u32, c_id: u32, o_id: u32) -> [u8; 16] {
    be_key([w_id, d_id, c_id, o_id])
}

/// Prefix covering a customer's orders in the secondary index.
pub fn order_customer_prefix(w_id: u32, d_id: u32, c_id: u32) -> [u8; 12] {
    customer_key(w_id, d_id, c_id)
}

/// ORDER-LINE primary key.
pub fn order_line_key(w_id: u32, d_id: u32, o_id: u32, ol_number: u32) -> [u8; 16] {
    be_key([w_id, d_id, o_id, ol_number])
}

/// Prefix covering every order line of one order.
pub fn order_line_prefix(w_id: u32, d_id: u32, o_id: u32) -> [u8; 12] {
    order_key(w_id, d_id, o_id)
}

/// ITEM primary key.
pub fn item_key(i_id: u32) -> [u8; 4] {
    be_key([i_id])
}

/// STOCK primary key.
pub fn stock_key_array(w_id: u32, i_id: u32) -> [u8; 8] {
    be_key([w_id, i_id])
}

/// STOCK primary key, owned (the form callers outside the transactions use).
pub fn stock_key(w_id: u32, i_id: u32) -> Vec<u8> {
    stock_key_array(w_id, i_id).to_vec()
}

/// Turns the prefix in `key` into the smallest key strictly greater than
/// every key with that prefix (the exclusive end of a prefix scan), in place,
/// and returns it: the prefix with its last non-`0xFF` byte incremented and
/// everything after it cut. `None` when the prefix is all `0xFF`.
pub fn prefix_end_in(key: &mut [u8]) -> Option<&[u8]> {
    let last = key.iter().rposition(|&b| b < 0xFF)?;
    key[last] += 1;
    Some(&key[..=last])
}

/// Owned form of [`prefix_end_in`].
pub fn prefix_end(prefix: &[u8]) -> Option<Vec<u8>> {
    let mut end = prefix.to_vec();
    let len = prefix_end_in(&mut end)?.len();
    end.truncate(len);
    Some(end)
}

// ---------------------------------------------------------------------------
// Row encodings
// ---------------------------------------------------------------------------

/// A fixed-width value of a row's head, little-endian on the wire.
pub trait Scalar: Copy {
    /// Encoded width in bytes.
    const SIZE: usize;
    /// Decodes from exactly [`Scalar::SIZE`] bytes.
    fn read(bytes: &[u8]) -> Self;
    /// Encodes into exactly [`Scalar::SIZE`] bytes.
    fn write(self, bytes: &mut [u8]);
}

macro_rules! int_scalar {
    ($($ty:ty),*) => {$(
        impl Scalar for $ty {
            const SIZE: usize = std::mem::size_of::<$ty>();
            fn read(bytes: &[u8]) -> Self {
                <$ty>::from_le_bytes(bytes.try_into().expect("field width"))
            }
            fn write(self, bytes: &mut [u8]) {
                bytes.copy_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}
int_scalar!(u32, i32, u64, i64);

impl Scalar for bool {
    const SIZE: usize = 1;
    fn read(bytes: &[u8]) -> Self {
        bytes[0] != 0
    }
    fn write(self, bytes: &mut [u8]) {
        bytes[0] = self as u8;
    }
}

impl<const N: usize> Scalar for [u8; N] {
    const SIZE: usize = N;
    fn read(bytes: &[u8]) -> Self {
        bytes.try_into().expect("field width")
    }
    fn write(self, bytes: &mut [u8]) {
        bytes.copy_from_slice(&self);
    }
}

/// Where one column sits in a row's fixed-width head. Every row type has one
/// `Field` constant per head column; they read and patch the column directly
/// in encoded bytes — a borrowed record value, or a copy about to be written
/// back — without decoding the rest of the row.
#[derive(Debug, Clone, Copy)]
pub struct Field<T> {
    offset: usize,
    _value: std::marker::PhantomData<fn() -> T>,
}

impl<T: Scalar> Field<T> {
    const fn at(offset: usize) -> Self {
        Field {
            offset,
            _value: std::marker::PhantomData,
        }
    }

    const fn end(self) -> usize {
        self.offset + T::SIZE
    }

    /// Reads the column from an encoded row.
    pub fn get(self, row: &[u8]) -> T {
        T::read(&row[self.offset..self.end()])
    }

    /// Overwrites the column in an encoded row.
    pub fn set(self, row: &mut [u8], value: T) {
        value.write(&mut row[self.offset..self.end()]);
    }

    /// Replaces the column in an encoded row with `f` of its current value.
    pub fn update(self, row: &mut [u8], f: impl FnOnce(T) -> T) {
        self.set(row, f(self.get(row)));
    }
}

/// The length prefix of a row string of `len` bytes.
pub(super) fn string_prefix(len: usize) -> [u8; 2] {
    u16::try_from(len)
        .expect("row strings are shorter than 64 KiB")
        .to_le_bytes()
}

/// The `K` length-prefixed strings that follow a row's `head`-byte fixed part.
pub fn strings<const K: usize>(row: &[u8], head: usize) -> [&[u8]; K] {
    let mut at = head;
    [(); K].map(|()| {
        let len = u16::from_le_bytes([row[at], row[at + 1]]) as usize;
        let string = &row[at + 2..at + 2 + len];
        at += 2 + len;
        string
    })
}

/// Declares a row type from its wire layout: the head columns in encoding
/// order (`field / FIELD_CONSTANT: type`), then, after `;`, the
/// length-prefixed strings in encoding order. Generates the owned struct,
/// one [`Field`] constant per head column plus `HEAD` (the head's length),
/// `encode_head`, `encode` and `decode`.
macro_rules! row {
    (
        $(#[$meta:meta])*
        $name:ident {
            $( $(#[$fmeta:meta])* $field:ident / $FIELD:ident : $ty:ty, )*
            ;
            $( $(#[$smeta:meta])* $string:ident, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )*
            $( $(#[$smeta])* pub $string: String, )*
        }

        impl $name {
            row!(@layout 0; $( $field / $FIELD : $ty, )*);

            /// Encodes the fixed-width head of the row (the whole row, for a
            /// type without strings) without allocating.
            pub fn encode_head(&self) -> [u8; Self::HEAD] {
                let mut head = [0u8; Self::HEAD];
                $( Self::$FIELD.set(&mut head, self.$field); )*
                head
            }

            /// Encodes the row.
            pub fn encode(&self) -> Vec<u8> {
                let strings: &[&str] = &[$( self.$string.as_str() ),*];
                let len = Self::HEAD + strings.iter().map(|s| 2 + s.len()).sum::<usize>();
                let mut out = Vec::with_capacity(len);
                out.extend_from_slice(&self.encode_head());
                for s in strings {
                    out.extend_from_slice(&string_prefix(s.len()));
                    out.extend_from_slice(s.as_bytes());
                }
                out
            }

            /// Decodes a row previously produced by [`Self::encode`].
            pub fn decode(data: &[u8]) -> Self {
                let [$( $string ),*] = strings(data, Self::HEAD);
                $name {
                    $( $field: Self::$FIELD.get(data), )*
                    $( $string: String::from_utf8_lossy($string).into_owned(), )*
                }
            }
        }
    };
    (@layout $at:expr; $field:ident / $FIELD:ident : $ty:ty, $($rest:tt)*) => {
        #[doc = concat!("Where `", stringify!($field), "` sits in the encoded row.")]
        pub const $FIELD: Field<$ty> = Field::at($at);
        row!(@layout Self::$FIELD.end(); $($rest)*);
    };
    (@layout $at:expr;) => {
        /// Length of the fixed-width head; the strings, if any, follow it.
        pub const HEAD: usize = $at;
    };
}

row! {
    /// WAREHOUSE row.
    WarehouseRow {
        /// Sales tax in basis points (e.g. 1250 = 12.5%).
        tax_bp / TAX_BP: u32,
        /// Year-to-date payments in cents.
        ytd_cents / YTD_CENTS: u64,
        ;
        /// Warehouse name.
        name,
    }
}

row! {
    /// DISTRICT row.
    DistrictRow {
        /// Sales tax in basis points.
        tax_bp / TAX_BP: u32,
        /// Year-to-date payments in cents.
        ytd_cents / YTD_CENTS: u64,
        /// Next order id to assign (`D_NEXT_O_ID`).
        next_o_id / NEXT_O_ID: u32,
        ;
        /// District name.
        name,
    }
}

row! {
    /// CUSTOMER row.
    CustomerRow {
        /// Balance in cents (may go negative).
        balance_cents / BALANCE_CENTS: i64,
        /// Year-to-date payment in cents.
        ytd_payment_cents / YTD_PAYMENT_CENTS: u64,
        /// Number of payments.
        payment_cnt / PAYMENT_CNT: u32,
        /// Number of deliveries.
        delivery_cnt / DELIVERY_CNT: u32,
        /// Discount in basis points.
        discount_bp / DISCOUNT_BP: u32,
        /// Credit flag ("GC" / "BC").
        credit / CREDIT: [u8; 2],
        ;
        /// First name.
        first,
        /// Last name (also indexed by [`customer_name_key`]).
        last,
        /// Miscellaneous data (grown by bad-credit payments).
        data,
    }
}

row! {
    /// HISTORY row.
    HistoryRow {
        /// Payment amount in cents.
        amount_cents / AMOUNT_CENTS: u64,
        /// Event timestamp (microseconds since an arbitrary origin).
        date / DATE: u64,
        ;
        /// Free-form data.
        data,
    }
}

row! {
    /// ORDER row.
    OrderRow {
        /// Ordering customer.
        c_id / C_ID: u32,
        /// Entry timestamp.
        entry_d / ENTRY_D: u64,
        /// Carrier id, 0 while undelivered.
        carrier_id / CARRIER_ID: u32,
        /// Number of order lines.
        ol_cnt / OL_CNT: u32,
        /// Whether every line is supplied by the home warehouse.
        all_local / ALL_LOCAL: bool,
        ;
    }
}

row! {
    /// ORDER-LINE row.
    OrderLineRow {
        /// Item ordered.
        i_id / I_ID: u32,
        /// Supplying warehouse.
        supply_w_id / SUPPLY_W_ID: u32,
        /// Delivery timestamp, 0 while undelivered.
        delivery_d / DELIVERY_D: u64,
        /// Quantity ordered.
        quantity / QUANTITY: u32,
        /// Line amount in cents.
        amount_cents / AMOUNT_CENTS: u64,
        /// District information copied from STOCK.
        dist_info / DIST_INFO: [u8; 24],
        ;
    }
}

row! {
    /// ITEM row.
    ItemRow {
        /// Price in cents.
        price_cents / PRICE_CENTS: u64,
        ;
        /// Item name.
        name,
        /// Free-form data; contains "ORIGINAL" for some items.
        data,
    }
}

row! {
    /// STOCK row.
    StockRow {
        /// Quantity on hand (can dip low; replenished by +91 per TPC-C rules).
        quantity / QUANTITY: i32,
        /// Year-to-date quantity sold.
        ytd / YTD: u64,
        /// Number of orders that touched this stock entry.
        order_cnt / ORDER_CNT: u32,
        /// Number of remote orders that touched this stock entry.
        remote_cnt / REMOTE_CNT: u32,
        /// District information string.
        dist_info / DIST_INFO: [u8; 24],
        ;
        /// Free-form data.
        data,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_preserve_component_order() {
        assert!(district_key(1, 2) < district_key(1, 3));
        assert!(district_key(1, 10) < district_key(2, 1));
        assert!(order_line_key(1, 1, 5, 3) < order_line_key(1, 1, 5, 4));
        assert!(order_line_key(1, 1, 5, 15) < order_line_key(1, 1, 6, 1));
        assert!(new_order_key(3, 4, 100).starts_with(&new_order_district_prefix(3, 4)));
        assert!(order_customer_key(1, 2, 3, 9).starts_with(&order_customer_prefix(1, 2, 3)));
        assert!(customer_name_key(1, 1, b"BARBAR", 7)
            .starts_with(&customer_name_prefix(1, 1, b"BARBAR")));
        assert!(customer_name_prefix(1, 1, b"BARBAR") < customer_name_prefix(1, 1, b"BARES"));
    }

    #[test]
    fn row_roundtrips() {
        let w = WarehouseRow {
            name: "W-One".into(),
            tax_bp: 1850,
            ytd_cents: 30_000_000,
        };
        assert_eq!(WarehouseRow::decode(&w.encode()), w);

        let d = DistrictRow {
            name: "D-Five".into(),
            tax_bp: 975,
            ytd_cents: 3_000_000,
            next_o_id: 3001,
        };
        assert_eq!(DistrictRow::decode(&d.encode()), d);

        let c = CustomerRow {
            first: "ALICE".into(),
            last: "BARBARBAR".into(),
            balance_cents: -1000,
            ytd_payment_cents: 10_00,
            payment_cnt: 1,
            delivery_cnt: 0,
            discount_bp: 500,
            credit: *b"GC",
            data: "x".repeat(100),
        };
        assert_eq!(CustomerRow::decode(&c.encode()), c);

        let o = OrderRow {
            c_id: 7,
            entry_d: 123456,
            carrier_id: 0,
            ol_cnt: 11,
            all_local: true,
        };
        assert_eq!(OrderRow::decode(&o.encode()), o);

        let ol = OrderLineRow {
            i_id: 42,
            supply_w_id: 3,
            delivery_d: 0,
            quantity: 5,
            amount_cents: 12_345,
            dist_info: [7u8; 24],
        };
        assert_eq!(OrderLineRow::decode(&ol.encode()), ol);

        let item = ItemRow {
            name: "widget".into(),
            price_cents: 99_99,
            data: "ORIGINAL".into(),
        };
        assert_eq!(ItemRow::decode(&item.encode()), item);

        let s = StockRow {
            quantity: 85,
            ytd: 10,
            order_cnt: 3,
            remote_cnt: 1,
            dist_info: [9u8; 24],
            data: "stock data".into(),
        };
        assert_eq!(StockRow::decode(&s.encode()), s);

        let h = HistoryRow {
            amount_cents: 4242,
            date: 999,
            data: "hist".into(),
        };
        assert_eq!(HistoryRow::decode(&h.encode()), h);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The encodings are on disk (log records, checkpoints) and on the wire:
    /// these are the bytes the original `Vec`-building coders produced for
    /// the same rows, and they must never change.
    #[test]
    fn row_encodings_are_byte_stable() {
        let w = WarehouseRow {
            name: "W-One".into(),
            tax_bp: 1850,
            ytd_cents: 30_000_000,
        };
        assert_eq!(hex(&w.encode()), "3a07000080c3c901000000000500572d4f6e65");
        assert_eq!(WarehouseRow::decode(&w.encode()), w);

        let d = DistrictRow {
            name: "D-Five".into(),
            tax_bp: 975,
            ytd_cents: 3_000_000,
            next_o_id: 3001,
        };
        assert_eq!(
            hex(&d.encode()),
            "cf030000c0c62d0000000000b90b00000600442d46697665"
        );
        assert_eq!(DistrictRow::decode(&d.encode()), d);

        let c = CustomerRow {
            first: "ALICE".into(),
            last: "BARBARBAR".into(),
            balance_cents: -1000,
            ytd_payment_cents: 10_00,
            payment_cnt: 1,
            delivery_cnt: 2,
            discount_bp: 500,
            credit: *b"BC",
            data: "some data".into(),
        };
        assert_eq!(
            hex(&c.encode()),
            "18fcffffffffffffe8030000000000000100000002000000f401000042430500414c4943450900\
             4241524241524241520900736f6d652064617461"
        );
        assert_eq!(CustomerRow::decode(&c.encode()), c);

        let h = HistoryRow {
            amount_cents: 4242,
            date: 999,
            data: "wh-1 dist-1-2".into(),
        };
        assert_eq!(
            hex(&h.encode()),
            "9210000000000000e7030000000000000d0077682d3120646973742d312d32"
        );
        assert_eq!(HistoryRow::decode(&h.encode()), h);

        let o = OrderRow {
            c_id: 7,
            entry_d: 123456,
            carrier_id: 3,
            ol_cnt: 11,
            all_local: true,
        };
        assert_eq!(
            hex(&o.encode()),
            "0700000040e2010000000000030000000b00000001"
        );
        assert_eq!(o.encode(), o.encode_head());
        assert_eq!(OrderRow::decode(&o.encode()), o);

        let ol = OrderLineRow {
            i_id: 42,
            supply_w_id: 3,
            delivery_d: 1,
            quantity: 5,
            amount_cents: 12_345,
            dist_info: *b"abcdefghijklmnopqrstuvwx",
        };
        assert_eq!(
            hex(&ol.encode()),
            "2a000000030000000100000000000000050000003930000000000000\
             6162636465666768696a6b6c6d6e6f707172737475767778"
        );
        assert_eq!(ol.encode(), ol.encode_head());
        assert_eq!(OrderLineRow::decode(&ol.encode()), ol);

        let item = ItemRow {
            name: "widget".into(),
            price_cents: 99_99,
            data: "ORIGINAL".into(),
        };
        assert_eq!(
            hex(&item.encode()),
            "0f27000000000000060077696467657408004f524947494e414c"
        );
        assert_eq!(ItemRow::decode(&item.encode()), item);

        let s = StockRow {
            quantity: -3,
            ytd: 10,
            order_cnt: 3,
            remote_cnt: 1,
            dist_info: *b"ABCDEFGHIJKLMNOPQRSTUVWX",
            data: "stock data".into(),
        };
        assert_eq!(
            hex(&s.encode()),
            "fdffffff0a000000000000000300000001000000\
             4142434445464748494a4b4c4d4e4f5051525354555657580a0073746f636b2064617461"
        );
        assert_eq!(StockRow::decode(&s.encode()), s);
    }

    /// Patching a column in place is the same as decode → mutate → encode.
    #[test]
    fn field_accessors_agree_with_the_owned_coders() {
        let mut s = StockRow {
            quantity: 85,
            ytd: 10,
            order_cnt: 3,
            remote_cnt: 1,
            dist_info: [9u8; 24],
            data: "stock data".into(),
        };
        let mut bytes = s.encode();
        assert_eq!(StockRow::QUANTITY.get(&bytes), 85);
        assert_eq!(StockRow::DIST_INFO.get(&bytes), [9u8; 24]);
        assert_eq!(strings(&bytes, StockRow::HEAD), [b"stock data"]);
        StockRow::QUANTITY.set(&mut bytes, -7);
        StockRow::YTD.update(&mut bytes, |ytd| ytd + 5);
        StockRow::REMOTE_CNT.update(&mut bytes, |n| n + 1);
        s.quantity = -7;
        s.ytd = 15;
        s.remote_cnt = 2;
        assert_eq!(bytes, s.encode());

        let c = CustomerRow {
            first: "F".into(),
            last: "L".into(),
            balance_cents: 0,
            ytd_payment_cents: 0,
            payment_cnt: 0,
            delivery_cnt: 0,
            discount_bp: 0,
            credit: *b"GC",
            data: "data".into(),
        };
        assert_eq!(CustomerRow::HEAD, 30);
        assert_eq!(
            strings(&c.encode(), CustomerRow::HEAD),
            [&b"F"[..], &b"L"[..], &b"data"[..]]
        );
    }

    #[test]
    fn key_encodings_are_byte_stable() {
        assert_eq!(hex(&warehouse_key(0x01020304)), "01020304");
        assert_eq!(hex(&district_key(1, 10)), "000000010000000a");
        assert_eq!(hex(&customer_key(2, 3, 3000)), "000000020000000300000bb8");
        assert_eq!(
            hex(&customer_name_key(1, 2, b"PRICALLYOUGHT", 77)),
            "000000010000000250524943414c4c594f554748540000000000004d"
        );
        assert_eq!(
            hex(&customer_name_key(1, 2, b"ABCDEFGHIJKLMNOPQRS", 77)),
            "00000001000000024142434445464748494a4b4c4d4e4f500000004d"
        );
        assert_eq!(
            hex(&customer_name_prefix(1, 2, b"BARBARBAR")),
            "000000010000000242415242415242415200000000000000"
        );
        assert_eq!(
            hex(&history_key(1, 2, 3, 0x0102030405060708)),
            "0000000100000002000000030102030405060708"
        );
        assert_eq!(hex(&new_order_key(1, 2, 2101)), "000000010000000200000835");
        assert_eq!(hex(&new_order_district_prefix(1, 2)), "0000000100000002");
        assert_eq!(hex(&order_key(1, 2, 2101)), "000000010000000200000835");
        assert_eq!(
            hex(&order_customer_key(1, 2, 3, 4)),
            "00000001000000020000000300000004"
        );
        assert_eq!(
            hex(&order_customer_prefix(1, 2, 3)),
            "000000010000000200000003"
        );
        assert_eq!(
            hex(&order_line_key(1, 2, 3, 15)),
            "0000000100000002000000030000000f"
        );
        assert_eq!(hex(&order_line_prefix(1, 2, 3)), "000000010000000200000003");
        assert_eq!(hex(&item_key(100_000)), "000186a0");
        assert_eq!(hex(&stock_key_array(2, 99_999)), "000000020001869f");
        assert_eq!(stock_key(2, 99_999), stock_key_array(2, 99_999));
    }

    #[test]
    fn prefix_end_increments_the_last_byte_that_can_be() {
        assert_eq!(prefix_end(&[1, 2, 3]), Some(vec![1, 2, 4]));
        assert_eq!(prefix_end(&[1, 0xFF, 0xFF]), Some(vec![2]));
        assert_eq!(prefix_end(&[0xFF, 0xFF]), None);
        assert_eq!(prefix_end(&[]), None);
        let mut key = order_line_prefix(1, 2, 0xFF);
        assert_eq!(
            prefix_end_in(&mut key),
            Some(&order_line_prefix(1, 2, 0x100)[..11])
        );
    }

    #[test]
    fn table_names_are_unique() {
        use std::collections::HashSet;
        let names: HashSet<_> = ALL_TABLES.iter().map(|t| t.name()).collect();
        assert_eq!(names.len(), ALL_TABLES.len());
        for (i, t) in ALL_TABLES.iter().enumerate() {
            assert_eq!(t.index(), i);
        }
    }
}
