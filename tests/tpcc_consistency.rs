//! Integration test: TPC-C consistency conditions after a concurrent run of
//! the full mix, checked through the facade crate with the same
//! `tpcc::check` invariants the crash-recovery CI gate runs.

mod common;

use std::sync::Arc;
use std::time::Duration;

use silo::{Database, EpochConfig, SiloConfig};
use silo_wl::driver::RunOptions;
use silo_wl::tpcc::check::check_consistency;
use silo_wl::tpcc::{load, TpccConfig, TpccWorkload};

use common::test_threads;

#[test]
fn tpcc_consistency_conditions_after_concurrent_mix() {
    // Overridable so the oversubscribed-stress sweep can pin 4 workers onto
    // 1 core: catches parking/spin pathologies that a thread-per-core run
    // never exercises.
    mix_keeps_consistency(SiloConfig::default(), 5, test_threads(3));
}

/// Every write installs a new record and the old one goes back to the
/// global allocator (Figure 11's "Simple"), on 1 ms epochs with more workers
/// than this box has cores: a worker descheduled between reading its commit
/// epoch and unlinking a record, or between fetching a pointer and reading
/// through it, straddles an epoch advance every few transactions. A record
/// reclaimed under an epoch older than the one it was unlinked in is freed
/// under such a reader; glibc then aborts the process or the reader sees a
/// length of terabytes.
#[test]
fn tpcc_mix_frees_no_record_under_a_reader() {
    let config = SiloConfig::default()
        .with_per_worker_pool(false)
        .with_overwrite_in_place(false);
    mix_keeps_consistency(config, 1, test_threads(4));
}

fn mix_keeps_consistency(config: SiloConfig, epoch_ms: u64, threads: usize) {
    let db = Database::open(config.with_epoch(EpochConfig {
        epoch_interval: Duration::from_millis(epoch_ms),
        snapshot_interval_epochs: 5,
    }));
    let cfg = TpccConfig {
        warehouses: 2,
        districts_per_warehouse: 3,
        customers_per_district: 30,
        initial_orders_per_district: 30,
        items: 100,
        ..TpccConfig::default()
    };
    let tables = load(&db, &cfg);
    let result = RunOptions::default()
        .with_threads(threads)
        .with_duration(Duration::from_millis(500))
        .run(
            &db,
            Arc::new(TpccWorkload::new(cfg.clone(), tables.clone())),
        );
    assert!(result.committed > 0);

    let summary = check_consistency(&db, &cfg, &tables).expect("consistency violated");
    assert_eq!(
        summary.districts,
        (cfg.warehouses * cfg.districts_per_warehouse) as u64
    );
    assert!(
        summary.orders > 0,
        "the mix must have produced orders to check"
    );
    db.stop_epoch_advancer();
}
