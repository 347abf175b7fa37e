//! The **scenario fuzzer**: a seeded random workload generator that records
//! every transaction through [`silo_check`] and verifies the execution was
//! serializable.
//!
//! Each run spawns `threads` sessions that hammer a small hot key space with
//! randomized multi-key transactions — reads, blind writes, read-modify-
//! writes, inserts and deletes, plus injected user aborts — while a
//! [`HistoryRecorder`] captures what every transaction observed and
//! installed. After the workers finish, [`check_serializability`] rebuilds
//! the serialization graph from the recorded history; any cycle is returned
//! as a [`FuzzFailure`] carrying the seed, the violation and the full
//! history so the run can be replayed and inspected.
//!
//! Determinism: each session derives its operation stream purely from
//! `(seed, thread_index)`, so a failing seed replays the same per-session
//! transaction streams (thread interleaving — and therefore the recorded
//! history — still varies run to run, which is the point: every
//! interleaving must check out).
//!
//! Runs always disable GC: the checker infers per-key version orders from
//! observed TIDs, and GC's index unhooking would make a later read of a
//! collected key look like a read of the initial version (see the
//! `silo_check::checker` docs).

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use silo_check::{check_serializability, dump_sessions, CheckReport, SessionHistory, Violation};
use silo_core::{Database, DurabilityHealth, EpochConfig, HistoryRecorder, SiloConfig, TableId};

/// Knobs for one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; every per-session stream derives from it.
    pub seed: u64,
    /// Number of concurrent sessions (threads).
    pub threads: usize,
    /// Transactions each session issues.
    pub txns_per_session: usize,
    /// Size of the key space (keys are 8-byte big-endian integers
    /// `0..keys`; the lower half is prepopulated).
    pub keys: u64,
    /// Size of the hot subset contended accesses concentrate on.
    pub hot_keys: u64,
    /// Probability in `[0, 1]` that an access targets the hot subset (the
    /// skew knob).
    pub hot_bias: f64,
    /// Maximum operations per transaction (actual count is uniform in
    /// `1..=max_txn_ops`).
    pub max_txn_ops: usize,
    /// Probability in `[0, 1]` that a transaction is aborted by the
    /// "application" right before commit (abort injection).
    pub abort_probability: f64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 1,
            threads: 2,
            txns_per_session: 300,
            keys: 32,
            hot_keys: 4,
            hot_bias: 0.6,
            max_txn_ops: 4,
            abort_probability: 0.05,
        }
    }
}

/// Statistics from a fuzz run whose history checked out.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// The seed the run used.
    pub seed: u64,
    /// Number of sessions.
    pub threads: usize,
    /// Committed transactions across all sessions (including setup).
    pub committed: u64,
    /// Aborted transactions across all sessions (engine + injected).
    pub aborted: u64,
    /// Whether any session ever observed non-[`Healthy`]
    /// [`DurabilityHealth`] during the run.
    ///
    /// [`Healthy`]: DurabilityHealth::Healthy
    pub degraded_seen: bool,
    /// The checker's statistics for the recorded history.
    pub report: CheckReport,
}

/// A fuzz run whose recorded history failed the serializability check.
#[derive(Debug)]
pub struct FuzzFailure {
    /// The seed that produced the failure — feed it back via
    /// `SILO_FUZZ_SEED` to replay.
    pub seed: u64,
    /// Number of sessions the failing run used.
    pub threads: usize,
    /// What the checker found.
    pub violation: Violation,
    /// The full recorded history, for offline inspection.
    pub sessions: Vec<SessionHistory>,
}

impl FuzzFailure {
    /// Renders the complete recorded history in the recorder's text format.
    pub fn dump(&self) -> String {
        dump_sessions(&self.sessions)
    }

    /// The command line that replays this failure.
    pub fn replay_command(&self) -> String {
        format!(
            "SILO_FUZZ_SEED={} SILO_FUZZ_THREADS={} cargo run --release -p silo-bench --bin history_fuzz",
            self.seed, self.threads
        )
    }
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "history check FAILED (seed={}, threads={}): {}",
            self.seed, self.threads, self.violation
        )?;
        write!(f, "replay with: {}", self.replay_command())
    }
}

impl std::error::Error for FuzzFailure {}

/// Runs one fuzz scenario on a fresh database and checks the recorded
/// history for serializability.
pub fn run_fuzz(config: &FuzzConfig) -> Result<FuzzOutcome, Box<FuzzFailure>> {
    let db = Database::open(
        SiloConfig::default()
            .with_epoch(EpochConfig {
                epoch_interval: Duration::from_millis(1),
                ..EpochConfig::default()
            })
            .with_spawn_epoch_advancer(true)
            // GC would unhook deleted keys and falsify observed versions; see
            // the module docs.
            .without_gc(),
    );
    let table = db.create_table("fuzz").expect("fresh database");
    let outcome = run_fuzz_on(&db, table, config);
    db.stop_epoch_advancer();
    outcome
}

/// Runs one fuzz scenario against an existing database (which must have GC
/// disabled), installing a [`HistoryRecorder`] if none is present. This
/// variant lets harnesses fuzz a database whose durability layer is being
/// fault-injected at the same time.
pub fn run_fuzz_on(
    db: &Arc<Database>,
    table: TableId,
    config: &FuzzConfig,
) -> Result<FuzzOutcome, Box<FuzzFailure>> {
    assert!(config.threads >= 1, "need at least one session");
    assert!(config.keys >= 2, "need at least two keys");
    assert!(config.max_txn_ops >= 1, "need at least one op per txn");

    let recorder = match db.history_recorder() {
        Some(existing) => Arc::clone(existing),
        None => {
            let fresh = Arc::new(HistoryRecorder::new());
            // A concurrent installer beating us to it is fine — use theirs.
            let _ = db.set_history_recorder(Arc::clone(&fresh));
            Arc::clone(db.history_recorder().expect("just installed"))
        }
    };
    recorder.set_enabled(true);
    // Discard history from any earlier run of this recorder so the check
    // below sees exactly this scenario's transactions.
    drop(recorder.take_sessions());

    // Prepopulate the lower half of the key space. Recorded like any other
    // session so the checker knows the initial versions' TIDs.
    let mut setup_committed = 0u64;
    {
        let mut worker = db.register_worker();
        let mut txn = worker.begin();
        for key in 0..config.keys / 2 {
            txn.write(table, &key.to_be_bytes(), &0u64.to_be_bytes())
                .expect("setup write");
        }
        txn.commit().expect("setup commit");
        setup_committed += 1;
        worker.flush_history();
    }

    let barrier = Arc::new(Barrier::new(config.threads));
    let degraded = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::with_capacity(config.threads);
    for thread_index in 0..config.threads {
        let db = Arc::clone(db);
        let cfg = config.clone();
        let barrier = Arc::clone(&barrier);
        let degraded = Arc::clone(&degraded);
        handles.push(std::thread::spawn(move || {
            let mut worker = db.register_worker();
            let mut rng = SmallRng::seed_from_u64(cfg.seed ^ ((thread_index as u64) << 32));
            barrier.wait();
            let mut committed = 0u64;
            let mut aborted = 0u64;
            for txn_index in 0..cfg.txns_per_session {
                let ops = rng.gen_range(1..=cfg.max_txn_ops);
                let mut txn = worker.begin();
                let mut poisoned = false;
                for _ in 0..ops {
                    let key = pick_key(&mut rng, &cfg).to_be_bytes();
                    let value = rng.gen::<u64>().to_be_bytes();
                    let result = match rng.gen_range(0..100) {
                        // Plain read.
                        0..=34 => txn.read(table, &key).map(|_| ()),
                        // Blind write.
                        35..=59 => txn.write(table, &key, &value),
                        // Read-modify-write: increment the stored counter.
                        60..=79 => txn.read(table, &key).and_then(|prev| {
                            let bumped = decode_counter(prev.as_deref())
                                .wrapping_add(1)
                                .to_be_bytes();
                            txn.write(table, &key, &bumped)
                        }),
                        // Insert (duplicate keys poison the transaction —
                        // that is a legitimate abort path to exercise).
                        80..=89 => txn.insert(table, &key, &value),
                        // Delete.
                        _ => txn.delete(table, &key).map(|_| ()),
                    };
                    if result.is_err() {
                        poisoned = true;
                        break;
                    }
                }
                // Sample durability while the workload runs, so harnesses
                // that inject log faults can assert the degraded window
                // was actually exercised.
                if txn_index % 16 == 0
                    && !matches!(db.durability_health(), DurabilityHealth::Healthy)
                {
                    degraded.store(true, Ordering::Relaxed);
                }
                if poisoned || rng.gen_bool(cfg.abort_probability) {
                    txn.abort();
                    aborted += 1;
                } else {
                    match txn.commit() {
                        Ok(_) => committed += 1,
                        Err(_) => aborted += 1,
                    }
                }
            }
            (committed, aborted)
        }));
    }

    let mut committed = setup_committed;
    let mut aborted = 0u64;
    for handle in handles {
        let (c, a) = handle.join().expect("fuzz session panicked");
        committed += c;
        aborted += a;
    }

    let sessions = recorder.take_sessions();
    match check_serializability(&sessions) {
        Ok(report) => Ok(FuzzOutcome {
            seed: config.seed,
            threads: config.threads,
            committed,
            aborted,
            degraded_seen: degraded.load(Ordering::Relaxed),
            report,
        }),
        Err(violation) => Err(Box::new(FuzzFailure {
            seed: config.seed,
            threads: config.threads,
            violation,
            sessions,
        })),
    }
}

fn decode_counter(value: Option<&[u8]>) -> u64 {
    match value {
        Some(bytes) if bytes.len() == 8 => {
            u64::from_be_bytes(bytes.try_into().expect("length checked"))
        }
        _ => 0,
    }
}

fn pick_key(rng: &mut SmallRng, cfg: &FuzzConfig) -> u64 {
    let hot = cfg.hot_keys.clamp(1, cfg.keys);
    let range = if rng.gen_bool(cfg.hot_bias) {
        hot
    } else {
        cfg.keys
    };
    rng.gen_range(0..range)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_run_is_serializable() {
        let outcome = run_fuzz(&FuzzConfig {
            seed: 7,
            threads: 1,
            txns_per_session: 120,
            ..FuzzConfig::default()
        })
        .expect("single-threaded history must check out");
        assert!(outcome.committed > 1);
        assert_eq!(outcome.report.sessions, 2); // setup + one fuzz session
        assert!(outcome.report.committed as u64 <= outcome.committed);
    }

    #[test]
    fn contended_run_is_serializable() {
        let outcome = run_fuzz(&FuzzConfig {
            seed: 42,
            threads: 3,
            txns_per_session: 150,
            keys: 8,
            hot_keys: 2,
            hot_bias: 0.9,
            ..FuzzConfig::default()
        })
        .expect("contended history must check out");
        assert!(outcome.committed > 1);
        assert!(outcome.report.edges > 0, "contention must produce edges");
        assert_eq!(outcome.report.sessions, 4);
    }

    #[test]
    fn failure_report_carries_seed_and_replay() {
        let failure = FuzzFailure {
            seed: 99,
            threads: 4,
            violation: Violation::DuplicateVersion {
                table: 0,
                key: vec![1],
                tid: silo_core::Tid::new(1, 1),
            },
            sessions: Vec::new(),
        };
        let text = failure.to_string();
        assert!(text.contains("seed=99"));
        assert!(text.contains("SILO_FUZZ_SEED=99"));
        assert!(text.contains("SILO_FUZZ_THREADS=4"));
    }
}
