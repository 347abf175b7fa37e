//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root is
//! generated from these tables (`--print-spec`) and a unit test keeps the two
//! identical, so the names later issues cite live in exactly one place.

/// Seconds one run measures when `--seconds` is not given (the value in
/// `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 8;

/// Embedded operations are sampled 1-in-`SAMPLE_EVERY` for latency and for
/// spans (the wire workloads choose their own stride, see `net.rs`).
pub const SAMPLE_EVERY: u64 = 64;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "ycsb_cached",
        why: "YCSB 80/20 over 20k keys that fit in cache: silo-core bookkeeping dominates, log and net idle",
    },
    WorkloadSpec {
        name: "ycsb_large",
        why: "Same YCSB stream over 1M keys (116 MB), far beyond L2: silo-index pointer chasing dominates",
    },
    WorkloadSpec {
        name: "tpcc_mem",
        why: "TPC-C standard mix, 2 warehouses: inserts, splits, scans, deletes, big write sets, silo-wl row coding",
    },
    WorkloadSpec {
        name: "tpcc_durable",
        why: "Same TPC-C stream with SiloLogger and fsync, then checkpoint and recovery: silo-log adds the work",
    },
    WorkloadSpec {
        name: "net_read",
        why: "100% GET over loopback, pipelined then depth 1: wire coding, syscalls and thread hand-off dominate",
    },
    WorkloadSpec {
        name: "net_durable",
        why: "50% PUT acked when durable: group commit sets latency, so a silo-net CPU saving should not move it",
    },
];

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen; `None`
    /// for per-layer metrics, which are never gated.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees. Every workload reports every one of
/// these (the driver contract), so the names are workload-neutral: see
/// README.md for what each means on each workload.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("txn_per_s", "1/s", "higher", 0.25),
    e2e("latency_p50_us", "us", "lower", 0.20),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Single-layer metrics, reported by the traced run only. A layer that does
/// nothing on a workload reports 0 there.
pub const PER_LAYER: &[MetricSpec] = &[
    // index (silo-index)
    layer("index.get_ns", "ns", "lower"),
    layer("index.scan100_ns", "ns", "lower"),
    layer("index.insert_ns", "ns", "lower"),
    layer("index.leaves", "count", "lower"),
    layer("index.inners", "count", "lower"),
    layer("index.max_depth", "count", "lower"),
    layer("index.splits", "count", "lower"),
    layer("index.reader_retries", "count", "lower"),
    // core (silo-core, with silo-tid and silo-epoch inside commit)
    layer("core.begin_ns", "ns", "lower"),
    layer("core.read_ns", "ns", "lower"),
    layer("core.write_ns", "ns", "lower"),
    layer("core.commit_ns", "ns", "lower"),
    layer("core.read_self_ns", "ns", "lower"),
    layer("core.txn_tax", "ratio", "lower"),
    layer("core.aborts_per_commit", "ratio", "lower"),
    layer("core.aborts.read_validation", "count", "lower"),
    layer("core.aborts.node_validation", "count", "lower"),
    layer("core.aborts.duplicate_key", "count", "lower"),
    layer("core.aborts.unstable_read", "count", "lower"),
    layer("core.aborts.node_set_fixup", "count", "lower"),
    layer("core.aborts.user_requested", "count", "lower"),
    layer("core.allocs_per_txn", "count", "lower"),
    layer("core.inplace_share", "ratio", "higher"),
    layer("core.live_bytes_per_user_byte", "ratio", "lower"),
    // wl (silo-wl TPC-C logic)
    layer("wl.new_order_us", "us", "lower"),
    layer("wl.payment_us", "us", "lower"),
    layer("wl.order_status_us", "us", "lower"),
    layer("wl.delivery_us", "us", "lower"),
    layer("wl.stock_level_us", "us", "lower"),
    layer("wl.allocs_per_txn", "count", "lower"),
    // log (silo-log)
    layer("log.tax_pct", "%", "lower"),
    layer("log.durable_wait_ms", "ms", "lower"),
    layer("log.durable_p99_ms", "ms", "lower"),
    layer("log.bytes_per_txn", "B", "lower"),
    layer("log.bytes_written_per_user_byte", "ratio", "lower"),
    layer("log.txns_per_sync", "ratio", "higher"),
    layer("log.pool_misses", "count", "lower"),
    layer("log.steal_publishes", "count", "lower"),
    layer("log.checkpoint_s", "s", "lower"),
    layer("log.checkpoint_mb_per_s", "MB/s", "higher"),
    layer("log.recover_s", "s", "lower"),
    layer("log.recover_ckpt_s", "s", "lower"),
    layer("log.recover_replay_s", "s", "lower"),
    // net (silo-net)
    layer("net.encode_request_ns", "ns", "lower"),
    layer("net.decode_request_ns", "ns", "lower"),
    layer("net.encode_response_ns", "ns", "lower"),
    layer("net.decode_response_ns", "ns", "lower"),
    layer("net.requests", "count", "higher"),
    layer("net.writes_acked", "count", "higher"),
    layer("net.shed_busy", "count", "lower"),
    layer("net.shed_degraded", "count", "lower"),
    layer("net.acks_per_sync", "ratio", "higher"),
    layer("net.overhead_us", "us", "lower"),
    layer("net.rtt_p99_us", "us", "lower"),
    // client (silo-client)
    layer("client.send_ns", "ns", "lower"),
    layer("client.flush_ns", "ns", "lower"),
    layer("client.recv_wait_us", "us", "lower"),
    layer("client.retries", "count", "lower"),
    layer("client.reconnects", "count", "lower"),
    // the traced run itself
    layer("harness.self_ns", "ns", "lower"),
    layer("traced_ns_per_op", "ns", "lower"),
    layer("untraced_ns", "ns", "lower"),
    layer("trace_overhead_pct", "%", "lower"),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

use crate::report::json_str;

/// The exact text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                m.bound.expect("end-to-end metrics have a bound")
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_the_spec_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `run.sh --print-spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(
                name_ok(w.name) && w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
            assert!(seen.insert(w.name));
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.better == "higher" || m.better == "lower");
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }
}
