//! Per-layer metrics that more than one workload derives the same way from
//! the crates' own statistics and from the span totals.

use std::path::Path;
use std::time::Instant;

use silo_core::{IndexStats, WorkerStats};
use silo_index::Tree;
use silo_log::record::{Block, StreamDecoder};
use silo_log::LoggerStats;

use crate::harness::{Outcome, Slices};
use crate::trace::{Aggs, Name};

/// Bare-index cost of a workload's own keys, measured after the run:
/// `Tree::get` and a 100-entry `Tree::scan` on the live `tree`, and
/// `insert_if_absent` of `distinct` keys into a scratch tree. `next_key`
/// yields the workload's key stream, `key_at(i)` its `i`-th distinct key.
/// Returns the mean `get` time in ns.
pub fn index_probes(
    out: &mut Outcome,
    tree: &Tree,
    probes: u64,
    mut next_key: impl FnMut() -> Vec<u8>,
    distinct: u64,
    key_at: impl Fn(u64) -> Vec<u8>,
) -> f64 {
    let keys: Vec<Vec<u8>> = (0..probes).map(|_| next_key()).collect();
    let start = Instant::now();
    let hits = keys.iter().filter(|k| tree.get(k).is_some()).count() as u64;
    let get_ns = start.elapsed().as_nanos() as f64 / probes as f64;
    out.fail(probes - hits, || {
        format!("{} bare-index lookups missed", probes - hits)
    });
    out.set("index.get_ns", get_ns);

    let scans = &keys[..keys.len() / 40 + 1];
    let start = Instant::now();
    let entries: usize = scans
        .iter()
        .map(|k| tree.scan(k, None, Some(100)).entries.len())
        .sum();
    std::hint::black_box(entries);
    out.set(
        "index.scan100_ns",
        start.elapsed().as_nanos() as f64 / scans.len() as f64,
    );

    let keys: Vec<Vec<u8>> = (0..distinct).map(key_at).collect();
    let scratch = Tree::new();
    let start = Instant::now();
    for (i, key) in keys.iter().enumerate() {
        std::hint::black_box(scratch.insert_if_absent(key, i as u64));
    }
    out.set(
        "index.insert_ns",
        start.elapsed().as_nanos() as f64 / distinct.max(1) as f64,
    );
    get_ns
}

/// Tree shape at the end of the run, structural changes during it.
pub fn index_shape(out: &mut Outcome, before: &IndexStats, after: &IndexStats) {
    out.set("index.leaves", after.leaves as f64);
    out.set("index.inners", after.inners as f64);
    out.set("index.max_depth", after.max_btree_depth as f64);
    out.set("index.splits", (after.splits - before.splits) as f64);
    out.set(
        "index.reader_retries",
        (after.reader_retries - before.reader_retries) as f64,
    );
}

/// Abort and version-install accounting over the measured phase.
pub fn core_stats(out: &mut Outcome, before: &WorkerStats, after: &WorkerStats) {
    let commits = (after.commits - before.commits).max(1) as f64;
    out.set(
        "core.aborts_per_commit",
        (after.aborts - before.aborts) as f64 / commits,
    );
    let (b, a) = (&before.abort_reasons, &after.abort_reasons);
    out.set(
        "core.aborts.read_validation",
        (a.read_validation - b.read_validation) as f64,
    );
    out.set(
        "core.aborts.node_validation",
        (a.node_validation - b.node_validation) as f64,
    );
    out.set(
        "core.aborts.duplicate_key",
        (a.duplicate_key - b.duplicate_key) as f64,
    );
    out.set(
        "core.aborts.unstable_read",
        (a.unstable_read - b.unstable_read) as f64,
    );
    out.set(
        "core.aborts.node_set_fixup",
        (a.node_set_fixup - b.node_set_fixup) as f64,
    );
    out.set(
        "core.aborts.user_requested",
        (a.user_requested - b.user_requested) as f64,
    );
    // The engine's own count of allocator calls: record-pool misses and
    // arena chunks.
    let engine_allocs = (after.pool_misses - before.pool_misses)
        + (after.arena_chunk_allocs - before.arena_chunk_allocs);
    out.set("core.allocs_per_txn", engine_allocs as f64 / commits);
    let inplace = (after.inplace_overwrites - before.inplace_overwrites) as f64;
    let installed = inplace + (after.new_versions - before.new_versions) as f64;
    out.set(
        "core.inplace_share",
        if installed > 0.0 {
            inplace / installed
        } else {
            0.0
        },
    );
}

/// Logger counters over the measured phase, per committed transaction.
pub fn log_stats(out: &mut Outcome, before: &LoggerStats, after: &LoggerStats, txns: u64) {
    let txns = txns.max(1) as f64;
    let syncs = (after.sync_calls - before.sync_calls).max(1) as f64;
    out.set(
        "log.bytes_per_txn",
        (after.bytes_published - before.bytes_published) as f64 / txns,
    );
    out.set("log.txns_per_sync", txns / syncs);
    out.set(
        "log.pool_misses",
        (after.pool_misses - before.pool_misses) as f64,
    );
    out.set(
        "log.steal_publishes",
        (after.steal_publishes - before.steal_publishes) as f64,
    );
}

/// Bytes on disk in the surviving log segments, and the key and value bytes
/// of the transactions they hold.
pub fn log_tail_bytes(dir: &Path) -> std::io::Result<(u64, u64)> {
    let (mut on_disk, mut user) = (0u64, 0u64);
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if !path.is_file()
            || !path
                .file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("silo-log-"))
        {
            continue;
        }
        on_disk += path.metadata()?.len();
        let mut decoder = StreamDecoder::new(std::io::BufReader::new(std::fs::File::open(&path)?));
        while let Ok(Some(block)) = decoder.next_block() {
            if let Block::Txn(txn) = block {
                user += txn
                    .writes
                    .iter()
                    .map(|w| (w.key.len() + w.value.as_ref().map_or(0, Vec::len)) as u64)
                    .sum::<u64>();
            }
        }
    }
    Ok((on_disk, user))
}

/// The budget line: each span name's self time per operation, their sum
/// (the mean traced operation), the end-to-end time per operation measured
/// with tracing off, and the remainder the spans do not explain.
pub fn budget(out: &mut Outcome, aggs: &Aggs, root: Name, ns_per_op: f64, slices: &Slices) {
    let ops = aggs[root as usize].count.max(1) as f64;
    let mut parts = Vec::new();
    let mut sum = 0.0;
    for name in Name::ALL {
        let agg = &aggs[name as usize];
        // The durable wait continues an operation on another thread; it is
        // latency, not time the load thread spends per operation.
        if agg.count == 0 || name == Name::LogDurableWait {
            continue;
        }
        let self_ns = agg.self_ns as f64 / ops;
        sum += self_ns;
        let label = if name.is_root() {
            "harness.self"
        } else {
            name.as_str()
        };
        parts.push(format!("{label} {self_ns:.1}"));
    }
    let untraced_ns = ns_per_op - sum;
    out.set("harness.self_ns", aggs[root as usize].self_ns as f64 / ops);
    out.set("traced_ns_per_op", sum);
    out.set("untraced_ns", untraced_ns);
    out.set("trace_overhead_pct", slices.trace_overhead_pct());
    out.detail(
        "budget",
        format!(
            "{} = {sum:.1} ns traced; end-to-end {ns_per_op:.1} ns/op; untraced_ns {untraced_ns:.1}; \
             trace_overhead_pct {:.2} ({} sampled ops)",
            parts.join(" + "),
            slices.trace_overhead_pct(),
            aggs[root as usize].count
        ),
    );
}
