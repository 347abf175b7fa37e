//! `ycsb_cached` and `ycsb_large`: the paper's YCSB variant on MemSilo with
//! two workers, over a key space that fits in cache and one that does not.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use silo_core::{Abort, Database, TableId, Worker, WorkerStats};
use silo_wl::ycsb::{ycsb_key, ycsb_value, RECORD_SIZE};

use crate::alloc::{thread_allocs, thread_net_bytes};
use crate::harness::{
    check_thread_budget, measure, memsilo_config, nproc, repeat_setup, Control, Outcome, Params,
    Slices,
};
use crate::spec::SAMPLE_EVERY;
use crate::stats::Timing;
use crate::stream::{YcsbOp, YcsbStream};
use crate::trace::{merge_aggs, Name, Tracer};
use crate::{layers, trace};

const WORKERS: usize = 2;
/// Transactions each worker runs before the measured phase.
const WARM_OPS: u64 = 500_000;
/// An operation that aborts this often in a row is reported as failed.
const RETRY_LIMIT: u32 = 1000;
const LOAD_BATCH: u64 = 1024;

pub fn keys_for(workload: &str, quick: bool) -> u64 {
    match (workload, quick) {
        ("ycsb_cached", false) => 20_000,
        ("ycsb_cached", true) => 2_000,
        (_, false) => 1_000_000,
        (_, true) => 50_000,
    }
}

#[derive(Default)]
struct WorkerOut {
    ops: u64,
    failed: u64,
    error: Option<String>,
    verified: u64,
    latencies_ns: Vec<u64>,
    tracer: Option<Tracer>,
    allocs: u64,
    load_net_bytes: i64,
    stats_before: WorkerStats,
    stats_after: WorkerStats,
}

struct Instance {
    db: Arc<Database>,
    table: TableId,
    control: Arc<Control>,
    workers: Vec<JoinHandle<WorkerOut>>,
}

/// One transaction attempt, with a span around each call into `silo-core`.
fn attempt(
    worker: &mut Worker,
    table: TableId,
    key: &[u8; 16],
    rmw: bool,
    value: &mut Vec<u8>,
    tr: &mut Tracer,
) -> Result<bool, Abort> {
    let s = tr.start(Name::CoreBegin);
    let mut txn = worker.begin();
    tr.end(s);
    let s = tr.start(Name::CoreRead);
    let read = txn.read_into(table, key, value);
    tr.end(s);
    let found = match read {
        Ok(found) => found,
        Err(abort) => {
            txn.abort();
            return Err(abort);
        }
    };
    if rmw {
        for b in value.iter_mut() {
            *b = b.wrapping_add(1);
        }
        let s = tr.start(Name::CoreWrite);
        let written = txn.write(table, key, value);
        tr.end(s);
        if let Err(abort) = written {
            txn.abort();
            return Err(abort);
        }
    }
    let s = tr.start(Name::CoreCommit);
    let committed = txn.commit();
    tr.end(s);
    committed.map(|_| found)
}

/// Runs `op` until it commits. Returns whether it committed within the
/// retry limit and found its key.
fn run_op(
    worker: &mut Worker,
    table: TableId,
    op: YcsbOp,
    value: &mut Vec<u8>,
    tr: &mut Tracer,
) -> Result<(), String> {
    let key = ycsb_key(op.key);
    for _ in 0..RETRY_LIMIT {
        match attempt(worker, table, &key, op.rmw, value, tr) {
            Ok(true) => return Ok(()),
            Ok(false) => return Err(format!("key {} not found", op.key)),
            Err(_) => continue,
        }
    }
    Err(format!(
        "key {} still aborting after {RETRY_LIMIT} attempts",
        op.key
    ))
}

#[allow(clippy::too_many_arguments)]
fn worker_main(
    db: Arc<Database>,
    table: TableId,
    control: Arc<Control>,
    index: usize,
    seed: u64,
    keys: u64,
    warm_ops: u64,
    origin: Instant,
) -> WorkerOut {
    let mut worker = db.register_worker();
    let mut tracer = Tracer::new(index, origin);
    let mut value = Vec::with_capacity(RECORD_SIZE);

    // Load this worker's share of the keys.
    let net_before = thread_net_bytes();
    let share = keys / WORKERS as u64;
    let (lo, hi) = (
        index as u64 * share,
        if index == WORKERS - 1 {
            keys
        } else {
            (index as u64 + 1) * share
        },
    );
    let mut k = lo;
    while k < hi {
        let end = (k + LOAD_BATCH).min(hi);
        // The other loader's splits can fail this batch's node-set
        // validation; a failed batch is simply written again.
        loop {
            let mut txn = worker.begin();
            let written = (k..end).try_for_each(|key| {
                txn.write(table, &ycsb_key(key), &ycsb_value(key, RECORD_SIZE))
            });
            if written.is_err() {
                txn.abort();
            } else if txn.commit().is_ok() {
                break;
            }
        }
        k = end;
    }
    let load_net_bytes = thread_net_bytes() - net_before;
    // No worker may touch the other's keys before they are loaded.
    control.finished.wait();

    let mut out = WorkerOut {
        latencies_ns: Vec::with_capacity(1 << 20),
        load_net_bytes,
        ..Default::default()
    };

    // Warm caches, the worker's record pool and its arena with the head of
    // the same stream the measured phase continues.
    let mut stream = YcsbStream::new(seed, index, keys);
    let mut ops = 0u64;
    for _ in 0..warm_ops {
        if let Err(e) = run_op(
            &mut worker,
            table,
            stream.next_op(),
            &mut value,
            &mut tracer,
        ) {
            out.failed += 1;
            out.error.get_or_insert(e);
        }
        ops += 1;
    }

    if !control.ready_then_go() {
        return out;
    }
    out.stats_before = worker.stats().clone();
    let allocs_before = thread_allocs();
    let done = &control.done[index].0;
    let start_ops = ops;
    while !control.stopped() {
        let sampled = ops.is_multiple_of(SAMPLE_EVERY);
        let traced = sampled && control.tracing.load(Ordering::Relaxed);
        let timed = (sampled && !traced).then(Instant::now);
        tracer.begin_op(traced, Name::Txn);
        let result = run_op(
            &mut worker,
            table,
            stream.next_op(),
            &mut value,
            &mut tracer,
        );
        tracer.end_op();
        if let Some(t0) = timed {
            if out.latencies_ns.len() < out.latencies_ns.capacity() {
                out.latencies_ns.push(t0.elapsed().as_nanos() as u64);
            }
        }
        if let Err(e) = result {
            out.failed += 1;
            out.error.get_or_insert(e);
        }
        ops += 1;
        done.store(ops - start_ops, Ordering::Relaxed);
    }
    out.allocs = thread_allocs() - allocs_before;
    out.stats_after = worker.stats().clone();
    out.ops = ops - start_ops;
    // Publish the total (warm-up included) for the other worker's replay.
    done.store(ops, Ordering::SeqCst);
    control.finished.wait();

    // Check every stored value of this worker's key share against the
    // number of read-modify-writes the streams committed on that key.
    let mut rmw_counts = vec![0u8; keys as usize];
    for (w, counter) in control.done.iter().enumerate() {
        let mut replay = YcsbStream::new(seed, w, keys);
        for _ in 0..counter.0.load(Ordering::SeqCst) {
            let op = replay.next_op();
            if op.rmw {
                rmw_counts[op.key as usize] = rmw_counts[op.key as usize].wrapping_add(1);
            }
        }
    }
    let mut k = lo;
    while k < hi {
        let mut txn = worker.begin();
        let end = (k + LOAD_BATCH).min(hi);
        while k < end {
            let found = txn
                .read_into(table, &ycsb_key(k), &mut value)
                .unwrap_or(false);
            let bump = rmw_counts[k as usize];
            let good = found
                && value.len() == RECORD_SIZE
                && value
                    .iter()
                    .zip(ycsb_value(k, RECORD_SIZE))
                    .all(|(got, init)| *got == init.wrapping_add(bump));
            if !good {
                out.failed += 1;
                out.error.get_or_insert_with(|| {
                    format!("key {k}: stored value is not its initial value + {bump}")
                });
            }
            out.verified += 1;
            k += 1;
        }
        let _ = txn.commit();
    }
    worker.quiesce();
    out.tracer = Some(tracer);
    out
}

fn setup(p: &Params, keys: u64, origin: Instant) -> Instance {
    let db = Database::open(memsilo_config());
    let table = db.create_table("ycsb").expect("create ycsb table");
    let control = Arc::new(Control::new(WORKERS));
    let warm_ops = if p.quick { 2_000 } else { WARM_OPS };
    let workers = (0..WORKERS)
        .map(|index| {
            let (db, control, seed) = (Arc::clone(&db), Arc::clone(&control), p.seed);
            std::thread::Builder::new()
                .name(format!("ycsb-worker-{index}"))
                .spawn(move || worker_main(db, table, control, index, seed, keys, warm_ops, origin))
                .expect("spawn ycsb worker")
        })
        .collect();
    control.wait_ready();
    Instance {
        db,
        table,
        control,
        workers,
    }
}

fn discard(instance: Instance) {
    instance.control.discard();
    for w in instance.workers {
        w.join().expect("ycsb worker panicked");
    }
    instance.db.stop_epoch_advancer();
}

pub fn run(workload: &'static str, p: &Params) -> Result<Outcome, String> {
    check_thread_budget(workload, WORKERS, nproc())?;
    let keys = keys_for(workload, p.quick);
    let origin = Instant::now();
    let mut out = Outcome {
        stream_hash: YcsbStream::fingerprint(p.seed, keys),
        ..Default::default()
    };

    let (instance, setup_s) = repeat_setup(|| setup(p, keys, origin), discard);
    let index_before = instance.db.index_stats();
    let slices: Slices = measure(&instance.control, p.seconds, p.trace);
    let results: Vec<WorkerOut> = instance
        .workers
        .into_iter()
        .map(|w| w.join().expect("ycsb worker panicked"))
        .collect();

    let mut latencies = Vec::new();
    let (mut before, mut after) = (WorkerStats::default(), WorkerStats::default());
    let (mut allocs, mut load_net_bytes) = (0u64, 0i64);
    for r in &results {
        out.attempted += r.ops + r.verified;
        out.fail(r.failed, || r.error.clone().unwrap_or_default());
        latencies.extend_from_slice(&r.latencies_ns);
        before.merge(&r.stats_before);
        after.merge(&r.stats_after);
        allocs += r.allocs;
        load_net_bytes += r.load_net_bytes;
    }
    let commits = (after.commits - before.commits).max(1);
    let latency = Timing::from_samples(latencies);
    out.detail("keys", keys);
    out.detail("workers", WORKERS);
    out.detail("measured_txns", slices.ops);
    out.detail("slices", slices.describe());
    out.detail("txn_latency", latency.describe(1e-3, "us"));

    if !p.trace {
        out.set("txn_per_s", slices.ops_per_s());
        out.set("latency_p50_us", latency.p50 / 1e3);
        out.set("setup_s", setup_s);
    } else {
        let tracers: Vec<Tracer> = results.into_iter().filter_map(|r| r.tracer).collect();
        let aggs = merge_aggs(&tracers);
        let ns_per_txn = WORKERS as f64 * 1e9 / slices.ops_per_s();
        let tree_table = instance.db.table(instance.table);
        let mut stream = YcsbStream::new(p.seed, 0, keys);
        let get_ns = layers::index_probes(
            &mut out,
            tree_table.tree(),
            keys.clamp(10_000, 400_000),
            || ycsb_key(stream.next_op().key).to_vec(),
            keys.min(200_000),
            // A multiplier coprime to the key count visits each key once, scattered.
            |i| ycsb_key((i * 7919) % keys).to_vec(),
        );
        layers::index_shape(&mut out, &index_before, &instance.db.index_stats());
        layers::core_stats(&mut out, &before, &after);
        out.set("core.begin_ns", aggs[Name::CoreBegin as usize].mean_ns());
        out.set("core.read_ns", aggs[Name::CoreRead as usize].mean_ns());
        out.set("core.write_ns", aggs[Name::CoreWrite as usize].mean_ns());
        out.set("core.commit_ns", aggs[Name::CoreCommit as usize].mean_ns());
        out.set(
            "core.read_self_ns",
            aggs[Name::CoreRead as usize].mean_ns() - get_ns,
        );
        out.set("core.txn_tax", ns_per_txn / get_ns);
        out.set("core.allocs_per_txn", allocs as f64 / commits as f64);
        out.set(
            "core.live_bytes_per_user_byte",
            load_net_bytes as f64 / (keys as f64 * (16 + RECORD_SIZE) as f64),
        );
        layers::budget(&mut out, &aggs, Name::Txn, ns_per_txn, &slices);
        trace::write_trace(&p.out_dir, workload, &tracers)?;
    }
    instance.db.stop_epoch_advancer();
    Ok(out)
}
