//! Load a small TPC-C database and run the standard transaction mix for a
//! few seconds, printing throughput and the per-transaction breakdown.
//!
//! ```sh
//! cargo run --release --example tpcc_demo
//! ```

use std::sync::Arc;
use std::time::Duration;

use silo::{Database, SiloConfig};
use silo_wl::driver::RunOptions;
use silo_wl::tpcc::{load, TpccConfig, TpccWorkload};

fn main() {
    let threads: usize = std::env::var("THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let seconds: u64 = std::env::var("SECONDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);

    let db = Database::open(SiloConfig::default());
    let config = TpccConfig::scaled(threads as u32, 0.05);
    println!(
        "loading TPC-C: {} warehouses, {} items, {} customers/district ...",
        config.warehouses, config.items, config.customers_per_district
    );
    let start = std::time::Instant::now();
    let tables = load(&db, &config);
    println!("loaded in {:.2?}", start.elapsed());

    let workload = Arc::new(TpccWorkload::new(config, tables));
    println!("running the standard mix on {threads} workers for {seconds}s ...");
    let result = RunOptions::default()
        .with_threads(threads)
        .with_duration(Duration::from_secs(seconds))
        .run(&db, workload);

    println!();
    println!("throughput        : {:>12.0} txn/s", result.throughput());
    println!(
        "per-core          : {:>12.0} txn/s/core",
        result.per_core_throughput()
    );
    println!("committed         : {:>12}", result.committed);
    println!("aborted           : {:>12}", result.aborted);
    println!(
        "in-place writes   : {:>12}",
        result.stats.inplace_overwrites
    );
    println!("new versions      : {:>12}", result.stats.new_versions);
    println!(
        "records reclaimed : {:>12} in {} collector rounds",
        result.stats.records_reclaimed, result.stats.gc_rounds
    );
    println!(
        "abort breakdown   : read={} node={} dup={} unstable={}",
        result.stats.abort_reasons.read_validation,
        result.stats.abort_reasons.node_validation,
        result.stats.abort_reasons.duplicate_key,
        result.stats.abort_reasons.unstable_read
    );
    db.stop_epoch_advancer();
}
