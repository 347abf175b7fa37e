//! `tpcc_mem` and `tpcc_durable`: the TPC-C standard mix on MemSilo, and the
//! same stream with `SiloLogger` installed, followed by a checkpoint, a
//! short burst that leaves a log tail, a clean shutdown and recovery.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use silo_core::{Abort, AbortReason, Database, Worker, WorkerStats};
use silo_log::{
    recover_directory, CheckpointConfig, Checkpointer, DurableWait, LoggerStats, RecoveryOptions,
    SiloLogger,
};
use silo_wl::tpcc::check::check_consistency;
use silo_wl::tpcc::schema::{stock_key, TpccTable};
use silo_wl::tpcc::{self, txns, TpccConfig, TpccTables, TxnKind};

use crate::alloc::{thread_allocs, thread_net_bytes};
use crate::harness::{
    check_thread_budget, fresh_dir, log_config, measure, memsilo_config, nproc, repeat_setup,
    Control, Outcome, Params,
};
use crate::spec::SAMPLE_EVERY;
use crate::stats::Timing;
use crate::stream::TpccStream;
use crate::trace::{merge_aggs, Name, Tracer};
use crate::{layers, trace};

const WAREHOUSES: u32 = 2;
/// Transactions each worker runs before the measured phase.
const WARM_TXNS: u64 = 3_000;
/// Transactions run after the checkpoint so that recovery has a log tail.
const TAIL_TXNS: u64 = 2_000;
/// Stream index of the post-checkpoint burst (no worker uses it).
const TAIL_STREAM: usize = 90;

/// Span name and per-layer metric of each `TxnKind`, in its declaration order.
const KINDS: [(Name, &str); 5] = [
    (Name::WlNewOrder, "wl.new_order_us"),
    (Name::WlPayment, "wl.payment_us"),
    (Name::WlOrderStatus, "wl.order_status_us"),
    (Name::WlDelivery, "wl.delivery_us"),
    (Name::WlStockLevel, "wl.stock_level_us"),
];

fn config(quick: bool) -> TpccConfig {
    TpccConfig::scaled(WAREHOUSES, if quick { 0.005 } else { 0.05 })
}

/// One call into `silo_wl::tpcc::txns`, inside a span named after its kind.
fn run_txn(
    worker: &mut Worker,
    tables: &TpccTables,
    cfg: &TpccConfig,
    kind: TxnKind,
    inputs: &mut SmallRng,
    w_id: u32,
    tr: &mut Tracer,
) -> Result<(), Abort> {
    let s = tr.start(KINDS[kind as usize].0);
    let result = match kind {
        TxnKind::NewOrder => txns::new_order(worker, tables, cfg, inputs, w_id).map(|_| ()),
        TxnKind::Payment => txns::payment(worker, tables, cfg, inputs, w_id),
        TxnKind::OrderStatus => txns::order_status(worker, tables, cfg, inputs, w_id),
        TxnKind::Delivery => txns::delivery(worker, tables, cfg, inputs, w_id),
        TxnKind::StockLevel => txns::stock_level(worker, tables, cfg, inputs, w_id).map(|_| ()),
    };
    tr.end(s);
    result
}

/// A committed transaction handed to the sampler thread, which waits for
/// its epoch to become durable on the worker's behalf.
struct Sample {
    begin: Instant,
    committed: Instant,
    epoch: u64,
    /// Set for a span-sampled operation: its id and commit time on the
    /// trace clock, for the follow-on `log.durable_wait` span.
    traced: Option<((u16, u32), u64)>,
}

struct SamplerOut {
    durable_ns: Vec<u64>,
    wait_ns: Vec<u64>,
    failed: u64,
    tracer: Tracer,
}

fn sampler_main(rx: Receiver<Sample>, logger: Arc<SiloLogger>, tracer: Tracer) -> SamplerOut {
    let mut out = SamplerOut {
        durable_ns: Vec::new(),
        wait_ns: Vec::new(),
        failed: 0,
        tracer,
    };
    while let Ok(sample) = rx.recv() {
        if logger.wait_for_durable_epoch(sample.epoch) != DurableWait::Durable {
            out.failed += 1;
            continue;
        }
        match sample.traced {
            Some((op, committed_ns)) => {
                let now = out.tracer.now_ns();
                out.tracer
                    .record_follow_on(op, Name::LogDurableWait, committed_ns, now);
            }
            None => {
                out.durable_ns
                    .push(sample.begin.elapsed().as_nanos() as u64);
                out.wait_ns
                    .push(sample.committed.elapsed().as_nanos() as u64);
            }
        }
    }
    out
}

#[derive(Default)]
struct WorkerOut {
    commits: u64,
    aborts: u64,
    failed: u64,
    error: Option<String>,
    latencies_ns: Vec<u64>,
    tracer: Option<Tracer>,
    allocs: u64,
    stats_before: WorkerStats,
    stats_after: WorkerStats,
}

struct Durable {
    logger: Arc<SiloLogger>,
    dir: PathBuf,
    sampler: Option<JoinHandle<SamplerOut>>,
}

struct Instance {
    db: Arc<Database>,
    cfg: TpccConfig,
    tables: TpccTables,
    control: Arc<Control>,
    workers: Vec<JoinHandle<WorkerOut>>,
    durable: Option<Durable>,
    load_net_bytes: i64,
}

#[allow(clippy::too_many_arguments)]
fn worker_main(
    db: Arc<Database>,
    cfg: TpccConfig,
    tables: TpccTables,
    control: Arc<Control>,
    index: usize,
    seed: u64,
    warm_txns: u64,
    samples: Option<Sender<Sample>>,
    origin: Instant,
) -> WorkerOut {
    let mut worker = db.register_worker();
    let mut tracer = Tracer::new(index, origin);
    let mut stream = TpccStream::new(seed, index);
    let w_id = index as u32 % cfg.warehouses + 1;
    let mut out = WorkerOut {
        latencies_ns: Vec::with_capacity(1 << 16),
        ..Default::default()
    };

    for _ in 0..warm_txns {
        let kind = stream.next_kind();
        let _ = run_txn(
            &mut worker,
            &tables,
            &cfg,
            kind,
            &mut stream.inputs,
            w_id,
            &mut tracer,
        );
    }
    if !control.ready_then_go() {
        return out;
    }

    out.stats_before = worker.stats().clone();
    let allocs_before = thread_allocs();
    let done = &control.done[index].0;
    let mut attempts = 0u64;
    // Latency is sampled on new-order only: the mix is bimodal, so a median
    // over all kinds would sit on the edge between two populations.
    let mut latency_due = false;
    while !control.stopped() {
        let kind = stream.next_kind();
        let sampled = attempts.is_multiple_of(SAMPLE_EVERY);
        latency_due |= sampled;
        let tracing = control.tracing.load(Ordering::Relaxed);
        let traced = sampled && tracing;
        let timed = (latency_due && !tracing && kind == TxnKind::NewOrder).then(Instant::now);
        tracer.begin_op(traced, Name::Txn);
        let result = run_txn(
            &mut worker,
            &tables,
            &cfg,
            kind,
            &mut stream.inputs,
            w_id,
            &mut tracer,
        );
        let op = tracer.op_id();
        let committed_ns = if traced { tracer.now_ns() } else { 0 };
        tracer.end_op();
        attempts += 1;
        match result {
            Ok(()) => {
                out.commits += 1;
                done.store(out.commits, Ordering::Relaxed);
                if let Some(samples) = &samples {
                    if timed.is_some() || traced {
                        let committed = Instant::now();
                        let _ = samples.send(Sample {
                            begin: timed.unwrap_or(committed),
                            committed,
                            // The commit epoch is at most the global epoch
                            // read right after the commit returned.
                            epoch: db.epochs().global_epoch(),
                            traced: traced.then_some((op, committed_ns)),
                        });
                    }
                } else if let Some(t0) = timed {
                    out.latencies_ns.push(t0.elapsed().as_nanos() as u64);
                }
                latency_due &= timed.is_none();
            }
            // An OCC abort is a retry with freshly drawn inputs; new-order
            // also rolls back 1 % of the time by specification.
            Err(Abort(reason)) => {
                out.aborts += 1;
                if reason == AbortReason::UserRequested && kind != TxnKind::NewOrder {
                    out.failed += 1;
                    out.error
                        .get_or_insert_with(|| format!("{kind:?} found a row missing"));
                }
            }
        }
    }
    out.allocs = thread_allocs() - allocs_before;
    worker.quiesce();
    out.stats_after = worker.stats().clone();
    out.tracer = Some(tracer);
    out
}

fn setup(p: &Params, label: &str, workers: usize, durable: bool, origin: Instant) -> Instance {
    let db = Database::open(memsilo_config());
    // The logger goes in before the load so that the initial population is
    // itself recoverable.
    let logging = durable.then(|| {
        let dir = fresh_dir(p, label);
        let logger = SiloLogger::install(log_config(&dir), &db).expect("install logger");
        (logger, dir)
    });
    let cfg = config(p.quick);
    let net_before = thread_net_bytes();
    let tables = tpcc::load(&db, &cfg);
    let load_net_bytes = thread_net_bytes() - net_before;

    let control = Arc::new(Control::new(workers));
    let (tx, rx) = channel();
    let handles = (0..workers)
        .map(|index| {
            let (db, cfg, tables, control) = (
                Arc::clone(&db),
                cfg.clone(),
                tables.clone(),
                Arc::clone(&control),
            );
            let samples = durable.then(|| tx.clone());
            let (seed, warm) = (p.seed, if p.quick { 200 } else { WARM_TXNS });
            std::thread::Builder::new()
                .name(format!("tpcc-worker-{index}"))
                .spawn(move || {
                    worker_main(db, cfg, tables, control, index, seed, warm, samples, origin)
                })
                .expect("spawn tpcc worker")
        })
        .collect();
    drop(tx);
    let durable = logging.map(|(logger, dir)| {
        let sampler_logger = Arc::clone(&logger);
        let tracer = Tracer::new(workers, origin);
        let sampler = std::thread::Builder::new()
            .name("tpcc-durable-sampler".to_string())
            .spawn(move || sampler_main(rx, sampler_logger, tracer))
            .expect("spawn sampler");
        Durable {
            logger,
            dir,
            sampler: Some(sampler),
        }
    });
    control.wait_ready();
    Instance {
        db,
        cfg,
        tables,
        control,
        workers: handles,
        durable,
        load_net_bytes,
    }
}

fn discard(instance: Instance) {
    instance.control.discard();
    for w in instance.workers {
        w.join().expect("tpcc worker panicked");
    }
    if let Some(d) = instance.durable {
        if let Some(sampler) = d.sampler {
            sampler.join().expect("sampler panicked");
        }
        d.logger.shutdown();
        let _ = std::fs::remove_dir_all(&d.dir);
    }
    instance.db.stop_epoch_advancer();
}

/// One table's present rows, in key order.
type Rows = Vec<(Vec<u8>, Vec<u8>)>;

/// Every table's rows.
fn dump_tables(db: &Arc<Database>) -> Result<Vec<Rows>, String> {
    let mut worker = db.register_worker();
    let mut tables = Vec::new();
    for id in db.table_ids() {
        let mut txn = worker.begin();
        let rows = txn
            .scan(id, b"", None, None)
            .map_err(|e| format!("scan of table {id}: {e}"))?;
        txn.commit()
            .map_err(|e| format!("scan of table {id}: {e}"))?;
        tables.push(rows);
    }
    Ok(tables)
}

fn user_bytes(tables: &[Rows]) -> u64 {
    tables
        .iter()
        .flatten()
        .map(|(k, v)| (k.len() + v.len()) as u64)
        .sum()
}

/// The durable workload's second half: checkpoint, log tail, clean
/// shutdown, recovery into a fresh database, and the checks on it.
fn checkpoint_and_recover(p: &Params, instance: Instance, out: &mut Outcome) -> Result<(), String> {
    let Instance {
        db,
        cfg,
        tables,
        durable,
        ..
    } = instance;
    let Durable { logger, dir, .. } = durable.expect("durable instance");

    let checkpointer = Checkpointer::spawn(
        Arc::clone(&db),
        Arc::clone(&logger),
        // Checkpoints are taken on request only.
        CheckpointConfig {
            interval: Duration::from_secs(3600),
            writers: nproc(),
            ..CheckpointConfig::new(&dir)
        },
    );
    // A checkpoint needs a snapshot epoch, which a very short run may not
    // have reached yet. Each attempt registers engine workers, whose ids the
    // logger caps, so wait between attempts instead of spinning.
    let mut start = Instant::now();
    let mut checkpoint_epoch = None;
    for _ in 0..50 {
        start = Instant::now();
        checkpoint_epoch = checkpointer
            .run_now()
            .map_err(|e| format!("checkpoint: {e}"))?;
        if checkpoint_epoch.is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let checkpoint_s = start.elapsed().as_secs_f64();
    let ckpt = checkpointer.stats();
    out.fail(u64::from(checkpoint_epoch.is_none()), || {
        "no checkpoint could be taken".to_string()
    });
    out.set("log.checkpoint_s", checkpoint_s);
    out.set(
        "log.checkpoint_mb_per_s",
        ckpt.last_bytes as f64 / 1e6 / checkpoint_s,
    );

    let mut worker = db.register_worker();
    let mut stream = TpccStream::new(p.seed, TAIL_STREAM);
    let mut tracer = Tracer::new(TAIL_STREAM, Instant::now());
    for _ in 0..if p.quick { 200 } else { TAIL_TXNS } {
        let kind = stream.next_kind();
        let _ = run_txn(
            &mut worker,
            &tables,
            &cfg,
            kind,
            &mut stream.inputs,
            1,
            &mut tracer,
        );
    }
    worker.quiesce();
    drop(worker);
    let waited = logger.wait_for_durable(db.epochs().global_epoch(), Duration::from_secs(30));
    out.fail(u64::from(waited != DurableWait::Durable), || {
        format!("log tail never became durable: {waited:?}")
    });

    let live = dump_tables(&db)?;
    checkpointer.shutdown();
    logger.shutdown();
    db.stop_epoch_advancer();
    drop(db);
    if p.trace {
        let (on_disk, user) =
            layers::log_tail_bytes(&dir).map_err(|e| format!("read log tail: {e}"))?;
        out.set(
            "log.bytes_written_per_user_byte",
            on_disk as f64 / user.max(1) as f64,
        );
    }

    let start = Instant::now();
    let recovered = Database::open(memsilo_config());
    let recovered_tables = TpccTables::create(&recovered, &cfg);
    let report = recover_directory(
        &recovered,
        &dir,
        &RecoveryOptions {
            replay_threads: nproc(),
            ..Default::default()
        },
    )
    .map_err(|e| format!("recovery failed: {e}"))?;
    let recover_s = start.elapsed().as_secs_f64();
    out.set("log.recover_s", recover_s);
    out.set("log.recover_ckpt_s", report.checkpoint_micros as f64 / 1e6);
    out.set("log.recover_replay_s", report.replay_micros as f64 / 1e6);
    out.detail(
        "recovery",
        format!(
            "{recover_s:.3} s: checkpoint epoch {} ({} records), horizon {}, {} txns replayed from {} B of log",
            report.checkpoint_epoch, report.checkpoint_records, report.durable_epoch, report.replayed_txns,
            report.log_bytes_scanned
        ),
    );

    if let Err(e) = check_consistency(&recovered, &cfg, &recovered_tables) {
        out.fail(1, || format!("recovered database is inconsistent: {e}"));
    }
    let recovered_rows = dump_tables(&recovered)?;
    for (table, (a, b)) in live.iter().zip(&recovered_rows).enumerate() {
        out.attempted += 1;
        out.fail(u64::from(a != b), || {
            format!(
                "table {table}: {} rows live at shutdown, {} after recovery, contents differ",
                a.len(),
                b.len()
            )
        });
    }
    let mut worker = recovered.register_worker();
    let mut inputs = SmallRng::seed_from_u64(p.seed);
    let accepted = (0..10)
        .any(|_| txns::payment(&mut worker, &recovered_tables, &cfg, &mut inputs, 1).is_ok());
    out.fail(u64::from(!accepted), || {
        "recovered database accepted no new commit".to_string()
    });
    drop(worker);
    recovered.stop_epoch_advancer();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

pub fn run(workload: &'static str, p: &Params) -> Result<Outcome, String> {
    let durable = workload == "tpcc_durable";
    // The durable run gives its second core to the logger thread.
    let workers = if durable { 1 } else { 2 };
    check_thread_budget(workload, workers, nproc())?;
    let origin = Instant::now();
    let mut out = Outcome {
        stream_hash: TpccStream::fingerprint(p.seed),
        ..Default::default()
    };

    let (mut instance, setup_s) =
        repeat_setup(|| setup(p, workload, workers, durable, origin), discard);
    // Taken only by the traced run, whose set-up time is not reported.
    let loaded_user_bytes = if p.trace {
        user_bytes(&dump_tables(&instance.db)?)
    } else {
        0
    };
    let index_before = instance.db.index_stats();
    let log_before = instance.durable.as_ref().map(|d| d.logger.stats());
    let slices = measure(&instance.control, p.seconds, p.trace);
    let Instance {
        workers: handles,
        durable: logging,
        ..
    } = &mut instance;
    let results: Vec<WorkerOut> = handles
        .drain(..)
        .map(|w| w.join().expect("tpcc worker panicked"))
        .collect();

    let mut latencies = Vec::new();
    let (mut before, mut after) = (WorkerStats::default(), WorkerStats::default());
    let (mut commits, mut aborts, mut allocs) = (0u64, 0u64, 0u64);
    let mut tracers = Vec::new();
    for r in results {
        commits += r.commits;
        aborts += r.aborts;
        allocs += r.allocs;
        out.fail(r.failed, || r.error.clone().unwrap_or_default());
        latencies.extend_from_slice(&r.latencies_ns);
        before.merge(&r.stats_before);
        after.merge(&r.stats_after);
        tracers.extend(r.tracer);
    }
    out.attempted += commits;
    let mut durable_wait = Timing::default();
    let mut log_after = LoggerStats::default();
    if let Some(d) = logging {
        log_after = d.logger.stats();
        // The workers have dropped their senders, so the sampler drains and ends.
        let sampled = d
            .sampler
            .take()
            .expect("sampler joined once")
            .join()
            .expect("sampler panicked");
        out.fail(sampled.failed, || {
            format!(
                "{} sampled transactions never became durable",
                sampled.failed
            )
        });
        latencies = sampled.durable_ns;
        durable_wait = Timing::from_samples(sampled.wait_ns);
        tracers.push(sampled.tracer);
    }
    let latency = Timing::from_samples(latencies);
    match check_consistency(&instance.db, &instance.cfg, &instance.tables) {
        Ok(summary) => out.attempted += summary.districts,
        Err(e) => out.fail(1, || format!("live database is inconsistent: {e}")),
    }
    out.detail(
        "config",
        format!(
            "TpccConfig::scaled({WAREHOUSES}, {}), {workers} workers",
            if p.quick { 0.005 } else { 0.05 }
        ),
    );
    out.detail("committed", commits);
    out.detail("slices", slices.describe());
    out.detail("aborted_attempts", aborts);
    out.detail(
        if durable {
            "new_order_durable_latency"
        } else {
            "new_order_latency"
        },
        latency.describe(1e-3, "us"),
    );

    if p.trace {
        let aggs = merge_aggs(&tracers);
        let ns_per_txn = workers as f64 * 1e9 / slices.ops_per_s();
        let stock = instance.db.table(instance.tables.id(TpccTable::Stock, 1));
        let items = u64::from(instance.cfg.items);
        let stock_at = |i: u64| stock_key((i / items) as u32 + 1, (i % items) as u32 + 1);
        let mut rng = SmallRng::seed_from_u64(p.seed);
        let stock_keys = items * u64::from(WAREHOUSES);
        layers::index_probes(
            &mut out,
            stock.tree(),
            100_000,
            || stock_at(rng.gen_range(0..stock_keys)),
            stock_keys,
            |i| stock_at((i * 7919) % stock_keys),
        );
        layers::index_shape(&mut out, &index_before, &instance.db.index_stats());
        layers::core_stats(&mut out, &before, &after);
        let measured = (after.commits - before.commits).max(1) as f64;
        out.set(
            "core.live_bytes_per_user_byte",
            instance.load_net_bytes as f64 / loaded_user_bytes.max(1) as f64,
        );
        out.set("core.txn_tax", ns_per_txn / out.metrics["index.get_ns"]);
        out.set("wl.allocs_per_txn", allocs as f64 / measured);
        for (name, key) in KINDS {
            out.set(key, aggs[name as usize].mean_ns() / 1e3);
        }
        layers::budget(&mut out, &aggs, Name::Txn, ns_per_txn, &slices);
        if let Some(before) = &log_before {
            layers::log_stats(&mut out, before, &log_after, commits);
            out.set("log.durable_wait_ms", durable_wait.p50 / 1e6);
            out.set("log.durable_p99_ms", latency.tail_value(1e-6));
            out.detail("durable_wait", durable_wait.describe(1e-6, "ms"));
        }
        trace::write_trace(&p.out_dir, workload, &tracers)?;
    } else {
        out.set("txn_per_s", slices.ops_per_s());
        out.set("latency_p50_us", latency.p50 / 1e3);
        out.set("setup_s", setup_s);
    }

    if durable {
        let durable_rate = slices.ops_per_s();
        checkpoint_and_recover(p, instance, &mut out)?;
        if p.trace {
            // The logging tax, by subtraction on the same substrate: the
            // same stream and worker count on MemSilo with no logger.
            let reference = setup(p, "reference", workers, false, origin);
            let rate = measure(&reference.control, (p.seconds / 4.0).min(2.0), false).ops_per_s();
            for w in reference.workers {
                w.join().expect("tpcc worker panicked");
            }
            reference.db.stop_epoch_advancer();
            out.set("log.tax_pct", (1.0 - durable_rate / rate) * 100.0);
            out.detail("memsilo_reference_txn_per_s", format!("{rate:.0}"));
        }
    } else {
        instance.db.stop_epoch_advancer();
    }
    Ok(out)
}
