//! The paper's YCSB-A variant (§5.2, §5.6).
//!
//! Differences from stock YCSB-A, exactly as described in the paper: the
//! read/write ratio is 80/20 instead of 50/50, writes are read-modify-writes
//! executed as a single transaction, records are 100 bytes, and keys are
//! sampled uniformly from the key space.

use std::cell::RefCell;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;

use silo_core::{Database, TableId, Worker};

use crate::driver::Workload;
use crate::keyvalue::KeyValueStore;

/// Size of a YCSB record in bytes (paper: 100 bytes).
pub const RECORD_SIZE: usize = 100;

/// YCSB workload parameters.
#[derive(Debug, Clone)]
pub struct YcsbConfig {
    /// Number of keys pre-loaded into the table (the paper uses 160 M; scale
    /// this to the machine).
    pub keys: u64,
    /// Probability of a read operation (the paper's variant uses 0.8; the
    /// rest are read-modify-writes).
    pub read_fraction: f64,
    /// Record payload size in bytes.
    pub record_size: usize,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        YcsbConfig {
            keys: 100_000,
            read_fraction: 0.8,
            record_size: RECORD_SIZE,
        }
    }
}

/// Encodes a YCSB key (fixed-width, zero-padded so ordering is stable).
pub fn ycsb_key(i: u64) -> [u8; 16] {
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(b"usertbl:");
    key[8..].copy_from_slice(&i.to_be_bytes());
    key
}

/// Generates the deterministic payload for key `i` (used by loading and by
/// read-modify-writes, which rewrite the record with a rotated payload).
pub fn ycsb_value(i: u64, size: usize) -> Vec<u8> {
    let mut v = vec![0u8; size];
    let seed = i.to_le_bytes();
    for (idx, byte) in v.iter_mut().enumerate() {
        *byte = seed[idx % 8].wrapping_add(idx as u8);
    }
    v
}

/// Loads the YCSB table, which must be new or empty, into a Silo database
/// with [`Worker::load`], returning the table id.
pub fn load_silo(db: &Arc<Database>, config: &YcsbConfig) -> TableId {
    let table = db
        .table_id("ycsb")
        .or_else(|_| db.create_table("ycsb"))
        .expect("create ycsb table");
    let rows = (0..config.keys).map(|i| (ycsb_key(i), ycsb_value(i, config.record_size)));
    db.register_worker()
        .load(table, rows)
        .expect("load ycsb table");
    table
}

/// Loads the YCSB table into the non-transactional Key-Value baseline.
pub fn load_keyvalue(kv: &KeyValueStore, config: &YcsbConfig) {
    for i in 0..config.keys {
        kv.put(&ycsb_key(i), &ycsb_value(i, config.record_size));
    }
}

/// The transactional YCSB workload (MemSilo / MemSilo+GlobalTID in Fig. 4,
/// depending on the database configuration).
pub struct YcsbSilo {
    config: YcsbConfig,
    table: TableId,
}

impl YcsbSilo {
    /// Creates the workload for a pre-loaded table.
    pub fn new(config: YcsbConfig, table: TableId) -> Self {
        YcsbSilo { config, table }
    }
}

thread_local! {
    /// Reusable value buffer so the benchmark loop itself allocates nothing
    /// in steady state (the engine's context/arena/pool handle the rest).
    static VALUE_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

impl Workload for YcsbSilo {
    fn run_one(&self, worker: &mut Worker, rng: &mut SmallRng, _thread: usize) -> bool {
        let key_index = rng.gen_range(0..self.config.keys);
        let key = ycsb_key(key_index);
        let is_read = rng.gen_bool(self.config.read_fraction);
        let mut txn = worker.begin();
        let outcome = VALUE_BUF.with(|buf| {
            let value = &mut *buf.borrow_mut();
            (|| -> Result<(), silo_core::Abort> {
                if is_read {
                    let _ = txn.read_into(self.table, &key, value)?;
                } else {
                    // Read-modify-write in a single transaction (§5.2 (b)).
                    txn.read_into(self.table, &key, value)?;
                    if value.len() < self.config.record_size {
                        value.resize(self.config.record_size, 0);
                    }
                    for b in value.iter_mut() {
                        *b = b.wrapping_add(1);
                    }
                    txn.write(self.table, &key, value)?;
                }
                Ok(())
            })()
        });
        match outcome {
            Ok(()) => txn.commit().is_ok(),
            Err(_) => {
                txn.abort();
                false
            }
        }
    }
}

/// The same operation mix against the non-transactional Key-Value baseline.
pub struct YcsbKeyValue {
    config: YcsbConfig,
    store: Arc<KeyValueStore>,
}

impl YcsbKeyValue {
    /// Creates the workload over a pre-loaded store.
    pub fn new(config: YcsbConfig, store: Arc<KeyValueStore>) -> Self {
        YcsbKeyValue { config, store }
    }
}

impl Workload for YcsbKeyValue {
    fn run_one(&self, _worker: &mut Worker, rng: &mut SmallRng, _thread: usize) -> bool {
        let key_index = rng.gen_range(0..self.config.keys);
        let key = ycsb_key(key_index);
        if rng.gen_bool(self.config.read_fraction) {
            self.store.get(&key).is_some()
        } else {
            self.store.read_modify_write(&key, |value| {
                for b in value.iter_mut() {
                    *b = b.wrapping_add(1);
                }
            })
        }
    }
}

/// A 100%-read-modify-write YCSB variant used by the snapshot space-overhead
/// experiment (§5.6): "every transaction is a read-modify-write operation on
/// a single record".
pub struct YcsbRmwOnly {
    config: YcsbConfig,
    table: TableId,
}

impl YcsbRmwOnly {
    /// Creates the workload for a pre-loaded table.
    pub fn new(config: YcsbConfig, table: TableId) -> Self {
        YcsbRmwOnly { config, table }
    }
}

impl Workload for YcsbRmwOnly {
    fn run_one(&self, worker: &mut Worker, rng: &mut SmallRng, _thread: usize) -> bool {
        let key = ycsb_key(rng.gen_range(0..self.config.keys));
        let mut txn = worker.begin();
        let outcome = VALUE_BUF.with(|buf| {
            let value = &mut *buf.borrow_mut();
            (|| -> Result<(), silo_core::Abort> {
                txn.read_into(self.table, &key, value)?;
                if value.len() < self.config.record_size {
                    value.resize(self.config.record_size, 0);
                }
                for b in value.iter_mut() {
                    *b = b.wrapping_mul(31).wrapping_add(7);
                }
                txn.write(self.table, &key, value)?;
                Ok(())
            })()
        });
        match outcome {
            Ok(()) => txn.commit().is_ok(),
            Err(_) => {
                txn.abort();
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::RunOptions;
    use silo_core::SiloConfig;
    use std::time::Duration;

    fn small_config() -> YcsbConfig {
        YcsbConfig {
            keys: 1000,
            ..Default::default()
        }
    }

    #[test]
    fn keys_are_fixed_width_and_ordered() {
        assert!(ycsb_key(1) < ycsb_key(2));
        assert!(ycsb_key(255) < ycsb_key(256));
        assert_eq!(ycsb_key(7).len(), 16);
        assert_eq!(ycsb_value(3, 100).len(), 100);
        assert_ne!(ycsb_value(3, 100), ycsb_value(4, 100));
    }

    #[test]
    fn silo_workload_runs_against_loaded_table() {
        let db = Database::open(SiloConfig::for_testing().with_spawn_epoch_advancer(true));
        let cfg = small_config();
        let table = load_silo(&db, &cfg);
        assert_eq!(db.table(table).approximate_len(), 1000);
        let result = RunOptions::default()
            .with_threads(2)
            .with_duration(Duration::from_millis(100))
            .run(&db, Arc::new(YcsbSilo::new(cfg, table)));
        assert!(result.committed > 0);
        db.stop_epoch_advancer();
    }

    #[test]
    fn keyvalue_workload_runs_against_loaded_store() {
        let db = Database::open(SiloConfig::for_testing());
        let cfg = small_config();
        let kv = KeyValueStore::shared();
        load_keyvalue(&kv, &cfg);
        assert_eq!(kv.len(), 1000);
        let result = RunOptions::default()
            .with_threads(2)
            .with_duration(Duration::from_millis(50))
            .run(&db, Arc::new(YcsbKeyValue::new(cfg, kv)));
        assert!(result.committed > 0);
    }

    #[test]
    fn rmw_only_workload_updates_records() {
        let db = Database::open(SiloConfig::for_testing().with_spawn_epoch_advancer(true));
        let cfg = YcsbConfig {
            keys: 100,
            ..Default::default()
        };
        let table = load_silo(&db, &cfg);
        let result = RunOptions::default()
            .with_duration(Duration::from_millis(50))
            .run(&db, Arc::new(YcsbRmwOnly::new(cfg, table)));
        assert!(result.committed > 0);
        db.stop_epoch_advancer();
    }
}
