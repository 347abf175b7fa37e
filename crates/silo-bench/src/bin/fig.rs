//! `fig <id>...` — the paper-figure runner: every experiment of the paper's
//! §5 through one harness, as the paper ran them (§5.1).
//!
//! ```sh
//! fig 4 5 index                     # ids: 4 5 7 8 9 10 11 space index
//! ```
//!
//! Figure 6 is Figure 5's per-core column; `space` is §5.6; `index` is the
//! raw `silo_index::Tree` microbenchmark. Each figure is one entry of
//! [`FIGURES`]: a sweep (worker counts, remote-item probability, or a single
//! point) × series (engine knobs, logging, workload) × columns, and
//! [`run_series`] owns set-up, the measured run, teardown and the row output
//! for all of them. Output is markdown: a fenced block of rows, then a
//! scorecard line per claim of the paper (`REPRODUCTION.md` is one such run
//! with the `BENCH_JSON` lines filtered out).
//!
//! Exit status: 0, or 1 when a check fails, or 2 on a usage error. The
//! checks, applied to every figure by [`failures`]: a persistent series must
//! produce durable-latency samples (none means the durable epoch stalled)
//! and report zero log retries, logger failures and injected faults (fault
//! injection is opt-in); and whenever a series ran at 1 worker and at more,
//! each multi-worker row must keep [`SCALING_FLOOR`] of that series' own
//! 1-worker throughput. The floor is self-relative on purpose: CI runners
//! oversubscribe, so more workers than cores must not *collapse* but cannot
//! be expected to speed up. Absolute performance is gated by `benchmark/` +
//! `BENCHMARK.json`, not here.
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `SILO_BENCH_SECONDS` | measured seconds per data point | 2 |
//! | `SILO_BENCH_THREADS` | comma-separated worker counts to sweep; single-point figures use the last | `1,2,4` |
//! | `SILO_BENCH_SCALE` | TPC-C scale factor vs. the spec sizes | 0.05 |
//! | `SILO_BENCH_YCSB_KEYS` | keys pre-loaded for figure 4 and `space` | 200000 |
//! | `SILO_BENCH_INDEX_KEYS` | keys pre-loaded for `index` | 200000 |
//! | `SILO_BENCH_WAREHOUSES` | warehouses for figures 8–11 | workers (8, 11), 4 (9), 8 (10) |
//! | `SILO_BENCH_FIG10_THREADS` | workers for figure 10 | 2 × warehouses |
//! | `SILO_BENCH_JSON_DIR` | also write each figure's rows to `BENCH_fig_<id>.json` there | unset |
//!
//! The paper's own parameters (60-second runs, 32 threads, 160 M keys,
//! warehouses = workers at full spec scale) are reproduced by setting these
//! on suitable hardware. `fig_recovery` and `history_fuzz` list their
//! additional variables in their own headers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::Rng;
use silo_bench::*;
use silo_core::{Database, SiloConfig, Worker};
use silo_index::Tree;
use silo_log::{LogConfig, LogMode, SiloLogger};
use silo_wl::driver::{run_workload, RunOptions, RunResult, Workload};
use silo_wl::keyvalue::KeyValueStore;
use silo_wl::partitioned::{PartitionedStats, PartitionedStore};
use silo_wl::tpcc::{load, TableSplit, TpccConfig, TpccMix, TpccWorkload};
use silo_wl::ycsb::{
    load_keyvalue, load_silo, ycsb_key, YcsbConfig, YcsbKeyValue, YcsbRmwOnly, YcsbSilo,
};

/// The system allocator, routed through [`CountingAllocator`] only while
/// [`METERING`] is set: §5.6 reads heap growth from it, but its shared byte
/// counters would cost every TPC-C series (~7 allocations per transaction)
/// its multi-worker scaling.
struct MeteredHeap;

#[global_allocator]
static ALLOCATOR: MeteredHeap = MeteredHeap;
static METERING: AtomicBool = AtomicBool::new(false);

impl MeteredHeap {
    fn current(&self) -> &'static dyn GlobalAlloc {
        if METERING.load(Ordering::Relaxed) {
            &CountingAllocator
        } else {
            &System
        }
    }
}

// SAFETY: both allocators end in the system allocator (`CountingAllocator`
// only adds bookkeeping), so a block allocated under one setting of the flag
// may be resized or freed under the other. `alloc_zeroed` and `realloc` are
// forwarded too, so an unmetered series keeps the system allocator's lazily
// zeroed pages and in-place growth.
unsafe impl GlobalAlloc for MeteredHeap {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract, forwarded unchanged.
        unsafe { self.current().alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, forwarded unchanged.
        unsafe { self.current().dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract, forwarded unchanged.
        unsafe { self.current().alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract, forwarded unchanged.
        unsafe { self.current().realloc(ptr, layout, new_size) }
    }
}

/// A multi-worker row must keep this share of its own series' 1-worker row.
const SCALING_FLOOR: f64 = 0.40;

/// Figure 8's x axis: per-item remote-warehouse probabilities. With ~10
/// items per order the per-transaction cross-partition share spans 0–90 %.
const REMOTE_PROBABILITIES: [f64; 6] = [0.0, 0.01, 0.02, 0.05, 0.10, 0.20];

/// Sizes and budgets of a run; [`Params::from_env`] is the only reader of
/// the variables in the module doc.
struct Params {
    seconds: Duration,
    threads: Vec<usize>,
    scale: f64,
    ycsb_keys: u64,
    index_keys: u64,
    warehouses: Option<u32>,
    fig10_threads: Option<usize>,
}

impl Params {
    fn from_env() -> Params {
        let optional = |name: &str| std::env::var(name).ok().and_then(|v| v.parse::<u64>().ok());
        Params {
            seconds: bench_seconds(),
            threads: bench_threads(),
            scale: bench_scale(),
            ycsb_keys: env_u64("SILO_BENCH_YCSB_KEYS", 200_000),
            index_keys: env_u64("SILO_BENCH_INDEX_KEYS", 200_000),
            warehouses: optional("SILO_BENCH_WAREHOUSES").map(|w| w as u32),
            fig10_threads: optional("SILO_BENCH_FIG10_THREADS").map(|t| t as usize),
        }
    }
}

enum Sweep {
    /// One point per entry of `Params::threads`.
    Threads,
    /// One point per entry of [`REMOTE_PROBABILITIES`], at the last thread count.
    RemoteProbability,
    /// A single point at the last thread count.
    Once,
}

/// An index key for `i`: the bytes and how many of them are used.
type KeyShape = fn(u64) -> ([u8; 24], usize);

/// 8-byte keys: the single-slice fast path (one layer, no suffix access).
fn key_u64(i: u64) -> ([u8; 24], usize) {
    let mut key = [0u8; 24];
    key[..8].copy_from_slice(&i.to_be_bytes());
    (key, 8)
}

/// The 16-byte YCSB encoding: exactly one trie-layer descent.
fn key_ycsb16(i: u64) -> ([u8; 24], usize) {
    let mut key = [0u8; 24];
    key[..16].copy_from_slice(&ycsb_key(i));
    (key, 16)
}

/// 24-byte TPC-C-style composite keys, two layer descents: three 8-byte
/// slices whose upper components repeat heavily, like warehouse / district
/// / order.
fn key_composite24(i: u64) -> ([u8; 24], usize) {
    let mut key = [0u8; 24];
    key[..8].copy_from_slice(&(i % 97).to_be_bytes());
    key[8..16].copy_from_slice(&(i % 1009).to_be_bytes());
    key[16..].copy_from_slice(&i.to_be_bytes());
    (key, 24)
}

#[derive(Clone, Copy)]
enum IndexOp {
    Get(KeyShape),
    /// Fresh ordered inserts into an empty tree, a disjoint range per thread.
    Insert,
    /// 100-entry range scans over the 16-byte key population.
    Scan,
}

/// One raw tree operation per driver call; the worker goes unused, as in
/// the Key-Value series.
struct IndexLoad {
    tree: Tree,
    op: IndexOp,
    keys: u64,
}

thread_local! {
    /// The calling driver thread's next fresh insert key (low 40 bits).
    static NEXT_INSERT: Cell<u64> = const { Cell::new(0) };
}

impl IndexLoad {
    fn preloaded(op: IndexOp, keys: u64) -> IndexLoad {
        let tree = Tree::new();
        let shape = match op {
            IndexOp::Get(shape) => Some(shape),
            IndexOp::Scan => Some(key_ycsb16 as KeyShape),
            IndexOp::Insert => None,
        };
        if let Some(shape) = shape {
            for i in 0..keys {
                let (key, len) = shape(i);
                tree.insert_if_absent(&key[..len], i);
            }
        }
        IndexLoad { tree, op, keys }
    }
}

impl Workload for IndexLoad {
    fn run_one(&self, _: &mut Worker, rng: &mut SmallRng, thread: usize) -> bool {
        match self.op {
            IndexOp::Get(shape) => {
                let i = rng.gen_range(0..self.keys);
                let (key, len) = shape(i);
                assert_eq!(self.tree.get(&key[..len]), Some(i));
            }
            IndexOp::Insert => {
                let i = ((thread as u64) << 40) | NEXT_INSERT.replace(NEXT_INSERT.get() + 1);
                self.tree.insert_if_absent(&i.to_be_bytes(), i);
            }
            IndexOp::Scan => {
                let start = rng.gen_range(0..self.keys.saturating_sub(100).max(1));
                let found = self.tree.scan(&ycsb_key(start), None, Some(100));
                assert!(!found.entries.is_empty());
            }
        }
        true
    }
}

/// New-order on the lock-per-warehouse baseline store, each driver thread
/// homed on one warehouse.
struct PartitionedNewOrder(Arc<PartitionedStore>);

impl Workload for PartitionedNewOrder {
    fn run_one(&self, _: &mut Worker, rng: &mut SmallRng, thread: usize) -> bool {
        let home = (thread as u32 % self.0.config().warehouses) + 1;
        self.0
            .new_order(rng, home, &mut PartitionedStats::default())
    }
}

/// TPC-C knobs of a series, applied to `TpccConfig::scaled`; the second
/// argument is the sweep point of a [`Sweep::RemoteProbability`] figure.
type TpccKnobs = fn(TpccConfig, f64) -> TpccConfig;

#[derive(Clone, Copy)]
enum Load {
    /// The paper's YCSB variant (80/20 read / read-modify-write) on the engine.
    Ycsb,
    /// 100 % read-modify-write YCSB (§5.6), with the heap metered.
    YcsbRmw,
    /// The YCSB mix on the bare concurrent tree, no transactions.
    KeyValue,
    Tpcc(TpccKnobs),
    Partitioned(TpccKnobs),
    Index(IndexOp),
}

struct Series {
    label: &'static str,
    /// Engine knobs on top of `memsilo_config()`.
    engine: fn(SiloConfig) -> SiloConfig,
    /// Logging for a persistent series, from the log directory and the
    /// worker count; `None` is MemSilo.
    log: Option<fn(&Path, usize) -> LogConfig>,
    load: Load,
}

impl Series {
    const fn mem(label: &'static str, load: Load) -> Series {
        Series::knobs(label, |c| c, load)
    }

    const fn knobs(
        label: &'static str,
        engine: fn(SiloConfig) -> SiloConfig,
        load: Load,
    ) -> Series {
        Series {
            label,
            engine,
            log: None,
            load,
        }
    }

    /// Persistent TPC-C, standard mix.
    const fn logged(label: &'static str, log: fn(&Path, usize) -> LogConfig) -> Series {
        Series {
            label,
            engine: |c| c,
            log: Some(log),
            load: Load::Tpcc(|c, _| c),
        }
    }
}

/// One measured point.
struct Row {
    series: &'static str,
    /// The swept value: workers, or remote-item probability.
    x: f64,
    /// Whether [`SCALING_FLOOR`] applies (not to the baseline store, which
    /// the paper shows serialising on its partition locks).
    gated: bool,
    /// Live heap bytes after loading, and the peak during the run (of a
    /// metered series).
    loaded_bytes: u64,
    peak_bytes: u64,
    result: RunResult,
}

impl Row {
    fn throughput(&self) -> f64 {
        self.result.throughput()
    }

    /// Heap growth during the run as a percentage of the loaded database:
    /// the memory retained for snapshot versions awaiting garbage collection.
    fn growth_pct(&self) -> f64 {
        let growth = self.peak_bytes.saturating_sub(self.loaded_bytes);
        growth as f64 / self.loaded_bytes.max(1) as f64 * 100.0
    }
}

/// A column: its header and how to read it off a row (the second argument
/// is the rows printed before it in the same figure). NaN is a value the row
/// does not have, printed `-`.
type Column = (&'static str, fn(&Row, &[Row]) -> f64);

const MIB: f64 = 1024.0 * 1024.0;
const THROUGHPUT: Column = ("txn/s", |r, _| r.throughput());
const PER_CORE: Column = ("txn/s/core", |r, _| r.result.per_core_throughput());
const ABORTS: Column = ("aborts/s", |r, _| r.result.abort_rate());
const ALLOCS_PER_TXN: Column = ("allocs/txn", |r, _| {
    allocs_per_txn(&r.result).unwrap_or(f64::NAN)
});
const MEAN_MS: Column = ("mean(ms)", |r, _| r.result.latency.mean_us / 1e3);
const P50_MS: Column = ("p50(ms)", |r, _| r.result.latency.p50_us as f64 / 1e3);
const P99_MS: Column = ("p99(ms)", |r, _| r.result.latency.p99_us as f64 / 1e3);
const MAX_MS: Column = ("max(ms)", |r, _| r.result.latency.max_us as f64 / 1e3);
/// Probability that a transaction with ~10 items touches a remote warehouse
/// at least once (what the paper plots on Figure 8's x axis).
const CROSS_PCT: Column = ("~cross-txn%", |r, _| (1.0 - (1.0 - r.x).powi(10)) * 100.0);
/// Throughput relative to the group's base: the latest series not named `+…`.
const RELATIVE: Column = ("relative", |r, before| {
    match before.iter().rev().find(|b| !b.series.starts_with('+')) {
        Some(base) if r.series.starts_with('+') => r.throughput() / base.throughput(),
        _ => 1.0,
    }
});
const LOADED_MIB: Column = ("loaded(MiB)", |r, _| r.loaded_bytes as f64 / MIB);
const PEAK_MIB: Column = ("peak(MiB)", |r, _| r.peak_bytes as f64 / MIB);
const GROWTH_PCT: Column = ("growth%", |r, _| r.growth_pct());
const RECLAIMED: Column = ("reclaimed", |r, _| r.result.stats.records_reclaimed as f64);

const STANDARD: &[Column] = &[THROUGHPUT, PER_CORE, ABORTS, ALLOCS_PER_TXN];

/// One scorecard line: what was read off this box's rows, and its number.
type Finding = (String, Option<f64>);

struct Figure {
    id: &'static str,
    title: &'static str,
    sweep: Sweep,
    /// `(workers, warehouses)` of a point, from the swept or last thread count.
    shape: fn(&Params, usize) -> (usize, u32),
    columns: &'static [Column],
    series: &'static [Series],
    /// The scorecard — where this box stands against the figure's claim in
    /// the paper: the claim, its number when the text gives one, the
    /// `BENCHMARK.json` workload and metric that track the same quantity,
    /// and our lines for it (none where the figure reproduces no claim).
    paper: &'static str,
    paper_value: Option<f64>,
    tracked_by: &'static str,
    ours: fn(&[Row]) -> Vec<Finding>,
}

fn warehouses_are_workers(_: &Params, t: usize) -> (usize, u32) {
    (t, t as u32)
}

fn warehouses_default_to_workers(p: &Params, t: usize) -> (usize, u32) {
    (t, p.warehouses.unwrap_or(t as u32))
}

fn new_order_only(c: TpccConfig) -> TpccConfig {
    TpccConfig {
        mix: TpccMix::new_order_only(),
        ..c
    }
}

fn new_order_remote(c: TpccConfig, remote: f64) -> TpccConfig {
    TpccConfig {
        remote_item_probability: remote,
        ..new_order_only(c)
    }
}

fn new_order_stock_level(c: TpccConfig, on_snapshot: bool) -> TpccConfig {
    let mix = TpccMix::new_order_stock_level();
    TpccConfig {
        mix,
        stock_level_on_snapshot: on_snapshot,
        ..c
    }
}

fn to_files(dir: &Path, workers: usize) -> LogConfig {
    LogConfig::to_directory(dir, workers.min(4))
}

static FIGURES: &[Figure] = &[
    Figure {
        id: "4",
        title: "Figure 4 — YCSB variant (80/20 read/RMW, 100-byte records, uniform keys)",
        sweep: Sweep::Threads,
        shape: |_, t| (t, 0),
        columns: STANDARD,
        series: &[
            Series::mem("Key-Value", Load::KeyValue),
            Series::mem("MemSilo", Load::Ycsb),
            Series::knobs("MemSilo+GlobalTID", |c| c.with_global_tid(), Load::Ycsb),
        ],
        paper: "Key-Value is only 1.07× MemSilo (§5.2)",
        paper_value: Some(1.0 / 1.07),
        tracked_by: "`ycsb_cached` `core.txn_tax`",
        ours: |rows| vec![ratio_at_last(rows, "MemSilo", "Key-Value")],
    },
    Figure {
        id: "5",
        title: "Figures 5 & 6 — TPC-C standard mix, warehouses = workers",
        sweep: Sweep::Threads,
        shape: warehouses_are_workers,
        columns: STANDARD,
        series: &[
            Series::mem("MemSilo", Load::Tpcc(|c, _| c)),
            Series::logged("Silo (persistent)", to_files),
        ],
        paper: "persistence costs about a tenth of MemSilo's throughput (§5.3)",
        paper_value: Some(0.9),
        tracked_by: "`tpcc_durable` `log.tax_pct`",
        ours: |rows| vec![ratio_at_last(rows, "Silo (persistent)", "MemSilo")],
    },
    Figure {
        id: "7",
        title: "Figure 7 — TPC-C durable latency (commit until its epoch is durable)",
        sweep: Sweep::Threads,
        shape: warehouses_are_workers,
        columns: &[MEAN_MS, P50_MS, P99_MS, MAX_MS, THROUGHPUT],
        series: &[
            Series::logged("Silo", |dir, t| to_files(dir, t).with_fsync(true)),
            Series::logged("Silo+tmpfs", to_files),
        ],
        paper: "about two epochs: the commit's own and the logger round that covers it (§5.3)",
        paper_value: Some(2.0),
        tracked_by: "`tpcc_durable` `log.durable_wait_ms`",
        ours: |rows| {
            let epoch_us = memsilo_config().epoch.epoch_interval.as_micros() as f64;
            let epochs = last_of(rows, "Silo").map(|r| r.result.latency.mean_us / epoch_us);
            vec![("Silo mean durable latency ÷ epoch interval".to_string(), epochs)]
        },
    },
    Figure {
        id: "8",
        title: "Figure 8 — 100% new-order as cross-partition transactions grow",
        sweep: Sweep::RemoteProbability,
        shape: warehouses_default_to_workers,
        columns: &[CROSS_PCT, THROUGHPUT],
        series: &[
            Series::mem("Partitioned-Store", Load::Partitioned(new_order_remote)),
            Series::mem(
                "MemSilo+Split",
                Load::Tpcc(|c, remote| TpccConfig {
                    split: TableSplit::PerWarehouse,
                    ..new_order_remote(c, remote)
                }),
            ),
            Series::mem("MemSilo", Load::Tpcc(new_order_remote)),
        ],
        paper: "Partitioned-Store wins with no cross-partition transactions and loses as their share grows (§5.4)",
        paper_value: None,
        tracked_by: "— (`tpcc_mem` `txn_per_s` is the MemSilo side; the benchmark has no partitioned store)",
        ours: |rows| {
            let overtakes = |ours: &&Row| {
                let theirs = rows.iter().find(|r| r.series == "Partitioned-Store" && r.x == ours.x);
                theirs.is_some_and(|theirs| ours.throughput() >= theirs.throughput())
            };
            let crossover = rows.iter().filter(|r| r.series == "MemSilo+Split").find(overtakes);
            let what = "smallest remote-item probability at which MemSilo+Split ≥ Partitioned-Store";
            vec![(what.to_string(), crossover.map(|r| r.x))]
        },
    },
    Figure {
        id: "9",
        title: "Figure 9 — 100% new-order on a fixed-size database (skew)",
        sweep: Sweep::Threads,
        shape: |p, t| (t, p.warehouses.unwrap_or(4)),
        columns: STANDARD,
        series: &[
            Series::mem("Partitioned-Store", Load::Partitioned(|c, _| new_order_only(c))),
            Series::mem("MemSilo", Load::Tpcc(|c, _| new_order_only(c))),
            Series::mem(
                "MemSilo+FastIds",
                Load::Tpcc(|c, _| TpccConfig { fast_ids: true, ..new_order_only(c) }),
            ),
        ],
        paper: "Partitioned-Store stays flat on its partition locks, MemSilo scales until district-counter conflicts, +FastIds scales furthest (§5.5)",
        paper_value: None,
        tracked_by: "`tpcc_mem` `core.aborts_per_commit`",
        ours: |rows| {
            let fewest = rows.first().map(|r| r.x);
            let firsts = rows.iter().filter(|r| Some(r.x) == fewest);
            firsts
                .map(|first| {
                    let what = format!("{}: most workers ÷ fewest workers", first.series);
                    (what, ratio(last_of(rows, first.series), Some(first)))
                })
                .collect()
        },
    },
    Figure {
        id: "10",
        title: "Figure 10 — 50% new-order / 50% stock-level: snapshot transactions",
        sweep: Sweep::Once,
        shape: |p, _| {
            let warehouses = p.warehouses.unwrap_or(8);
            (p.fig10_threads.unwrap_or(2 * warehouses as usize), warehouses)
        },
        columns: &[THROUGHPUT, ABORTS],
        series: &[
            Series::mem("MemSilo", Load::Tpcc(|c, _| new_order_stock_level(c, true))),
            Series::mem("MemSilo+NoSS", Load::Tpcc(|c, _| new_order_stock_level(c, false))),
        ],
        paper: "2,299 vs 15,756 aborts/s, at 200,252 vs 181,062 txn/s (Fig. 10)",
        paper_value: Some(2_299.0 / 15_756.0),
        tracked_by: "`tpcc_mem` `core.aborts_per_commit`",
        ours: |rows| {
            let aborts = |series| last_of(rows, series).map(|r| r.result.abort_rate());
            let ratio = aborts("MemSilo").zip(aborts("MemSilo+NoSS").filter(|&n| n > 0.0));
            vec![("MemSilo ÷ MemSilo+NoSS aborts/s".to_string(), ratio.map(|(s, n)| s / n))]
        },
    },
    Figure {
        id: "11",
        title: "Figure 11 — factor analysis, TPC-C standard mix (cumulative within each group)",
        sweep: Sweep::Once,
        shape: warehouses_default_to_workers,
        columns: &[THROUGHPUT, RELATIVE],
        series: &[
            // Regular group: no per-worker allocator pool and a new record
            // per write, then the two factors that make up MemSilo, then two
            // mechanisms MemSilo keeps on.
            Series::knobs(
                "Simple",
                |c| c.with_per_worker_pool(false).with_overwrite_in_place(false),
                Load::Tpcc(|c, _| c),
            ),
            Series::knobs("+Allocator", |c| c.with_overwrite_in_place(false), Load::Tpcc(|c, _| c)),
            Series::mem("+Overwrites", Load::Tpcc(|c, _| c)),
            Series::knobs("+NoSnapshots", |c| c.with_snapshots(false), Load::Tpcc(|c, _| c)),
            Series::knobs(
                "+NoGC",
                |c| c.with_snapshots(false).with_gc(false),
                Load::Tpcc(|c, _| c),
            ),
            // Persistence group: 8-byte log records, full records (= Silo),
            // compressed full records.
            Series::mem("MemSilo", Load::Tpcc(|c, _| c)),
            Series::logged("+SmallRecs", |dir, _| {
                LogConfig::to_directory(dir, 2).with_mode(LogMode::SmallRecords)
            }),
            Series::logged("+FullRecs", |dir, _| LogConfig::to_directory(dir, 2)),
            Series::logged("+Compress", |dir, _| {
                LogConfig::to_directory(dir, 2).with_compress(true)
            }),
        ],
        paper: "allocator and overwrites are the large gains, snapshots and GC cost a few percent, full log records about a tenth, compression does not pay (§5.7)",
        paper_value: None,
        tracked_by: "`tpcc_mem` / `tpcc_durable` `txn_per_s`, `core.inplace_share`, `log.bytes_per_txn`",
        ours: |rows| {
            let factors = rows.windows(2).filter(|pair| pair[1].series.starts_with('+'));
            factors
                .map(|pair| {
                    let what = format!("{} ÷ the configuration before it", pair[1].series);
                    (what, ratio(Some(&pair[1]), Some(&pair[0])))
                })
                .collect()
        },
    },
    Figure {
        id: "space",
        title: "§5.6 — space overhead of snapshots, 100% read-modify-write YCSB",
        sweep: Sweep::Once,
        shape: |_, t| (t, 0),
        columns: &[LOADED_MIB, PEAK_MIB, GROWTH_PCT, THROUGHPUT, RECLAIMED],
        series: &[Series::mem("MemSilo", Load::YcsbRmw)],
        paper: "small: only versions a live snapshot may still read are retained (§5.6)",
        paper_value: None,
        tracked_by: "`ycsb_cached` `core.live_bytes_per_user_byte`",
        ours: |rows| {
            let what = "peak heap growth during the run, % of the loaded database";
            vec![(what.to_string(), rows.first().map(Row::growth_pct))]
        },
    },
    Figure {
        id: "index",
        title: "Index microbenchmark — raw silo_index::Tree, no transactions",
        sweep: Sweep::Threads,
        shape: |_, t| (t, 0),
        columns: &[THROUGHPUT, PER_CORE],
        series: &[
            Series::mem("get/u64", Load::Index(IndexOp::Get(key_u64))),
            Series::mem("get/ycsb16", Load::Index(IndexOp::Get(key_ycsb16))),
            Series::mem("get/composite24", Load::Index(IndexOp::Get(key_composite24))),
            Series::mem("insert/u64", Load::Index(IndexOp::Insert)),
            Series::mem("scan/100", Load::Index(IndexOp::Scan)),
        ],
        // Not a claim of the paper; `ycsb_large` `index.*` is the gate.
        paper: "",
        paper_value: None,
        tracked_by: "",
        ours: |_| Vec::new(),
    },
];

fn last_of<'a>(rows: &'a [Row], series: &str) -> Option<&'a Row> {
    rows.iter().rev().find(|r| r.series == series)
}

fn ratio(numerator: Option<&Row>, denominator: Option<&Row>) -> Option<f64> {
    let (n, d) = numerator.zip(denominator)?;
    (d.throughput() > 0.0).then(|| n.throughput() / d.throughput())
}

/// Throughput of one series over another's at the last sweep point.
fn ratio_at_last(rows: &[Row], numerator: &str, denominator: &str) -> Finding {
    let workers = rows.last().map_or(0, |r| r.result.threads);
    let what = format!("{numerator} ÷ {denominator} throughput at {workers} workers");
    (
        what,
        ratio(last_of(rows, numerator), last_of(rows, denominator)),
    )
}

/// Measures one series at every point of the figure's sweep — open, install
/// the logger, load, run, shut down — printing and emitting each row as it
/// completes.
fn run_series(fig: &Figure, series: &Series, p: &Params, log_dir: &Path, rows: &mut Vec<Row>) {
    let last = *p.threads.last().expect("Params::threads is never empty");
    let points: Vec<(Option<f64>, usize)> = match fig.sweep {
        Sweep::Threads => p.threads.iter().map(|&t| (None, t)).collect(),
        Sweep::RemoteProbability => REMOTE_PROBABILITIES
            .iter()
            .map(|&r| (Some(r), last))
            .collect(),
        Sweep::Once => vec![(None, last)],
    };
    for (remote, t) in points {
        let (threads, warehouses) = (fig.shape)(p, t);
        // A block from an earlier, unmetered point freed from here on skews
        // the byte count until `reset_peak` below; the load dwarfs it.
        METERING.store(matches!(series.load, Load::YcsbRmw), Ordering::Relaxed);
        let db = Database::open((series.engine)(memsilo_config()));
        // Installed before loading, as a deployment that wants its initial
        // population recoverable would.
        let logger = series.log.map(|config| {
            SiloLogger::install(config(log_dir, threads), &db).expect("install logger")
        });
        let ycsb = YcsbConfig {
            keys: p.ycsb_keys,
            ..Default::default()
        };
        let tpcc = |knobs: TpccKnobs| {
            knobs(
                TpccConfig::scaled(warehouses, p.scale),
                remote.unwrap_or_default(),
            )
        };
        let workload: Arc<dyn Workload> = match series.load {
            Load::Ycsb => Arc::new(YcsbSilo::new(ycsb.clone(), load_silo(&db, &ycsb))),
            Load::YcsbRmw => Arc::new(YcsbRmwOnly::new(ycsb.clone(), load_silo(&db, &ycsb))),
            Load::KeyValue => {
                let store = KeyValueStore::shared();
                load_keyvalue(&store, &ycsb);
                Arc::new(YcsbKeyValue::new(ycsb, store))
            }
            Load::Tpcc(knobs) => {
                let config = tpcc(knobs);
                let tables = load(&db, &config);
                Arc::new(TpccWorkload::new(config, tables))
            }
            Load::Partitioned(knobs) => {
                Arc::new(PartitionedNewOrder(PartitionedStore::load(&tpcc(knobs))))
            }
            Load::Index(op) => Arc::new(IndexLoad::preloaded(op, p.index_keys)),
        };
        let loaded_bytes = CountingAllocator::allocated();
        CountingAllocator::reset_peak();
        let mut options = RunOptions::default()
            .with_threads(threads)
            .with_duration(p.seconds);
        if let Some(logger) = &logger {
            options = options.with_logger(Arc::clone(logger));
        }
        let result = run_workload(&db, workload, options);
        let peak_bytes = CountingAllocator::peak();
        if let Some(logger) = logger {
            logger.shutdown();
            let _ = std::fs::remove_dir_all(log_dir);
        }
        db.stop_epoch_advancer();

        let row = Row {
            series: series.label,
            x: remote.unwrap_or(threads as f64),
            gated: !matches!(series.load, Load::Partitioned(_)),
            loaded_bytes,
            peak_bytes,
            result,
        };
        let mut line = format!("{:<20} {:>8}", row.series, row.x);
        for (_, value) in fig.columns {
            let v = value(&row, rows);
            // Counts and rates as integers; ratios and milliseconds with decimals.
            let cell = if v.is_nan() {
                "-".to_string()
            } else if v == 0.0 || v.abs() >= 100.0 {
                format!("{v:.0}")
            } else {
                format!("{v:.4}")
            };
            line.push_str(&format!(" {cell:>14}"));
        }
        println!("{line}");
        print_logger_stats(&row.result);
        let json_series = match remote {
            Some(remote) => format!("{} remote={remote}", row.series),
            None => row.series.to_string(),
        };
        emit_bench_json(
            &format!("fig_{}", fig.id),
            &json_series,
            threads,
            &row.result,
        );
        rows.push(row);
    }
}

/// Runs one figure: header, every series, then the scorecard.
fn run_figure(fig: &Figure, p: &Params) -> Vec<Row> {
    let log_dir = std::env::temp_dir().join(format!("silo-fig-log-{}", std::process::id()));
    println!("\n## {}\n\n```text", fig.title);
    let x = if matches!(fig.sweep, Sweep::RemoteProbability) {
        "remote_p"
    } else {
        "workers"
    };
    let headers: String = fig
        .columns
        .iter()
        .map(|(name, _)| format!(" {name:>14}"))
        .collect();
    println!("{:<20} {x:>8}{headers}", "series");
    let mut rows = Vec::new();
    for series in fig.series {
        run_series(fig, series, p, &log_dir, &mut rows);
    }
    println!("```");
    let number = |v: Option<f64>| v.map_or("—".to_string(), |v| format!("{v:.2}"));
    let claim = match fig.paper_value {
        Some(v) => format!("{v:.2} — {}", fig.paper),
        None => fig.paper.to_string(),
    };
    for (i, (what, ours)) in (fig.ours)(&rows).into_iter().enumerate() {
        let versus = ours.zip(fig.paper_value).map(|(ours, paper)| ours / paper);
        // The claim and the tracking metric are per figure: spelled out on
        // the first line only.
        let (paper, tracked_by) = if i == 0 {
            println!("\n| claim | paper | ours (this box) | ours ÷ paper | tracked by |");
            println!("|---|---|---|---|---|");
            (claim.as_str(), fig.tracked_by)
        } else {
            ("″", "″")
        };
        println!(
            "| {what} | {paper} | {} | {} | {tracked_by} |",
            number(ours),
            number(versus)
        );
    }
    write_bench_json(&format!("fig_{}", fig.id));
    rows
}

/// The checks of the module doc; every string is one failure.
fn failures(rows: &[Row]) -> Vec<String> {
    let mut failed = Vec::new();
    for r in rows {
        let at = format!("{} at {} workers", r.series, r.result.threads);
        if let Some(log) = &r.result.logger_stats {
            if r.result.latency.samples == 0 {
                failed.push(format!(
                    "{at}: no durable-latency samples (did the durable epoch stall?)"
                ));
            }
            if log.retries + log.logger_failures + log.faults_injected > 0 {
                failed.push(format!(
                    "{at}: {} log retries, {} logger failures, {} injected faults in a plain run",
                    log.retries, log.logger_failures, log.faults_injected
                ));
            }
        }
        let single = rows
            .iter()
            .find(|o| o.series == r.series && o.result.threads == 1);
        if let Some(single) = single.filter(|_| r.gated && r.result.threads > 1) {
            if r.throughput() < SCALING_FLOOR * single.throughput() {
                failed.push(format!(
                    "{at}: {:.0} txn/s is under {:.0}% of its 1-worker {:.0} txn/s",
                    r.throughput(),
                    SCALING_FLOOR * 100.0,
                    single.throughput()
                ));
            }
        }
    }
    failed
}

fn figure(id: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.id == id)
}

fn main() -> ExitCode {
    let ids: Vec<String> = std::env::args().skip(1).collect();
    if ids.is_empty() || ids.iter().any(|id| figure(id).is_none()) {
        let known: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        eprintln!("usage: fig <id>...   (ids: {})", known.join(" "));
        return ExitCode::from(2);
    }
    let p = Params::from_env();
    println!(
        "# Paper figures on this box: {} CPUs (more workers than that is oversubscribed)\n",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "{:?} per point, worker counts {:?}, TPC-C scale {}, {} YCSB keys, {} index keys.",
        p.seconds, p.threads, p.scale, p.ycsb_keys, p.index_keys
    );
    let mut failed = Vec::new();
    for id in &ids {
        let rows = run_figure(figure(id).expect("checked above"), &p);
        failed.extend(
            failures(&rows)
                .into_iter()
                .map(|f| format!("fig {id}: {f}")),
        );
    }
    for failure in &failed {
        eprintln!("FAIL {failure}");
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(series: &'static str, threads: usize, committed: u64) -> Row {
        let result = RunResult {
            committed,
            aborted: 0,
            duration: Duration::from_secs(1),
            stats: Default::default(),
            latency: Default::default(),
            threads,
            logger_stats: None,
            checkpoint_stats: None,
            index_stats: None,
        };
        Row {
            series,
            x: threads as f64,
            gated: true,
            loaded_bytes: 0,
            peak_bytes: 0,
            result,
        }
    }

    #[test]
    fn scaling_floor_is_forty_percent_of_the_series_own_single_worker_row() {
        let collapse = [synthetic("s", 1, 1000), synthetic("s", 4, 390)];
        assert_eq!(
            failures(&collapse).len(),
            1,
            "39% of the 1-worker row must fail"
        );
        let holds = [synthetic("s", 1, 1000), synthetic("s", 4, 410)];
        assert!(failures(&holds).is_empty(), "41% must pass");
        // Nothing to compare against: one thread count, or another series' row.
        assert!(failures(&[synthetic("s", 4, 1)]).is_empty());
        assert!(failures(&[synthetic("other", 1, 1000), synthetic("s", 4, 1)]).is_empty());
        let mut baseline_store = synthetic("s", 4, 1);
        baseline_store.gated = false;
        assert!(failures(&[synthetic("s", 1, 1000), baseline_store]).is_empty());
    }

    #[test]
    fn a_persistent_series_must_sample_durable_latency_and_log_cleanly() {
        let mut stalled = synthetic("Silo", 1, 1000);
        stalled.result.logger_stats = Some(Default::default());
        assert_eq!(failures(&[stalled]).len(), 1);

        let mut faulty = synthetic("Silo", 1, 1000);
        faulty.result.latency.samples = 10;
        faulty.result.logger_stats = Some(silo_log::LoggerStats {
            retries: 1,
            ..Default::default()
        });
        assert_eq!(failures(&[faulty]).len(), 1);
    }

    #[test]
    fn figure_ids_resolve_and_fig11_is_the_papers_factor_list() {
        for id in ["4", "5", "7", "8", "9", "10", "11", "space", "index"] {
            assert!(figure(id).is_some(), "figure {id}");
        }
        assert_eq!(FIGURES.len(), 9);
        assert!(figure("6").is_none() && figure("fig4").is_none());
        let labels: Vec<&str> = figure("11")
            .unwrap()
            .series
            .iter()
            .map(|s| s.label)
            .collect();
        let paper = [
            [
                "Simple",
                "+Allocator",
                "+Overwrites",
                "+NoSnapshots",
                "+NoGC",
            ]
            .as_slice(),
            ["MemSilo", "+SmallRecs", "+FullRecs", "+Compress"].as_slice(),
        ];
        assert_eq!(labels, paper.concat());
    }

    /// Walks the whole table at one worker and tiny sizes, so a renamed knob
    /// or a series that stops committing breaks `cargo test`, not only CI.
    #[test]
    fn every_series_of_every_figure_produces_its_rows() {
        let p = Params {
            seconds: Duration::from_millis(100),
            threads: vec![1],
            scale: 0.01,
            ycsb_keys: 20_000,
            index_keys: 20_000,
            warehouses: Some(1),
            fig10_threads: Some(1),
        };
        for fig in FIGURES {
            let rows = run_figure(fig, &p);
            let points = match fig.sweep {
                Sweep::RemoteProbability => REMOTE_PROBABILITIES.len(),
                Sweep::Threads | Sweep::Once => 1,
            };
            for series in fig.series {
                let of_series: Vec<&Row> =
                    rows.iter().filter(|r| r.series == series.label).collect();
                assert_eq!(of_series.len(), points, "fig {} {}", fig.id, series.label);
                for row in of_series {
                    assert!(
                        row.throughput() > 0.0,
                        "fig {} {} committed nothing",
                        fig.id,
                        series.label
                    );
                    assert_eq!(
                        row.result.latency.samples > 0,
                        series.log.is_some(),
                        "fig {} {}: durable-latency samples iff persistent",
                        fig.id,
                        series.label
                    );
                }
            }
            assert_eq!(failures(&rows), Vec::<String>::new(), "fig {}", fig.id);
        }
    }
}
