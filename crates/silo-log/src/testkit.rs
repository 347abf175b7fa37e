//! Fixtures shared by the crate's tests: log bytes built by the crate's own
//! encoders, scratch directories, and recovered databases.

use crate::{
    record, recover_directory, sink, LogConfig, RecoveryOptions, RecoveryReport, SiloLogger,
};
use silo_core::{Database, SiloConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Checkpoint slices and manifests, from the checkpointer's own encoder.
pub(crate) use crate::checkpoint::tests::{slice_bytes, write_checkpoint};

/// Wraps already-encoded inner blocks in one CRC-sealed envelope, as a logger
/// thread does with a group-commit round.
pub(crate) fn sealed(inner: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let header = record::begin_sealed(&mut out);
    out.extend_from_slice(inner);
    record::seal(&mut out, header);
    out
}

/// The tuple form of a write-set, as [`record::encode_txn`] takes it.
pub(crate) fn as_writes<'a>(
    writes: &'a [(silo_core::TableId, &'a [u8], Option<&'a [u8]>)],
) -> impl ExactSizeIterator<Item = silo_core::CommitWrite<'a>> + 'a {
    writes
        .iter()
        .map(|&(table, key, value)| silo_core::CommitWrite { table, key, value })
}

/// Every block of `stream`, through the one decoder.
pub(crate) fn decode_all(stream: &[u8]) -> Result<Vec<record::Block>, record::DecodeError> {
    let mut decoder = record::StreamDecoder::new(stream);
    let mut blocks = Vec::new();
    while let Some(block) = decoder.next_block()? {
        blocks.push(block);
    }
    Ok(blocks)
}

/// A scratch directory of this test process, removed when dropped.
pub(crate) struct ScratchDir(PathBuf);

impl std::ops::Deref for ScratchDir {
    type Target = std::path::Path;

    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A fresh, empty scratch directory: the process id and a process-wide
/// counter make it unique, so tests running in parallel never share one.
pub(crate) fn scratch_dir(name: &str) -> ScratchDir {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("silo-{name}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    ScratchDir(dir)
}

/// Writes `streams[i]` as the first segment of logger `i` under `dir`.
pub(crate) fn write_segments(dir: &std::path::Path, streams: &[Vec<u8>]) {
    for (i, stream) in streams.iter().enumerate() {
        std::fs::write(dir.join(format!("silo-log-{i}-seg000000.bin")), stream).unwrap();
    }
}

/// The log of logger `logger` under `dir`: its segment files, read in
/// sequence order.
pub(crate) fn log_stream(dir: &std::path::Path, logger: usize) -> Vec<u8> {
    let segments = sink::segments(&crate::fs::RealFs, dir).unwrap();
    segments
        .iter()
        .filter(|(idx, ..)| *idx == logger)
        .flat_map(|(.., path)| std::fs::read(path).unwrap())
        .collect()
}

/// Recovers the log directory `dir` into a fresh database with one table
/// `name`.
pub(crate) fn recovered(name: &str, dir: &std::path::Path) -> (Arc<Database>, RecoveryReport) {
    let db = Database::open(SiloConfig::for_testing());
    db.create_table(name).unwrap();
    let report = recover_directory(&db, dir, &RecoveryOptions::default()).unwrap();
    (db, report)
}

/// Fails unless every table of `db` is free of records that are latest and
/// absent: recovery builds no record for a key whose last write deletes it.
pub(crate) fn assert_no_absent_record(db: &Database) {
    for id in db.table_ids() {
        for (key, value) in db.table(id).tree().scan(b"", None, None).entries {
            // SAFETY: the table's records live as long as the database, and
            // no transaction runs.
            let word = unsafe { (*(value as *const silo_core::record::Record)).tid().load() };
            assert!(
                !(word.is_latest() && word.is_absent()),
                "table {id} key {key:?}: an absent record survived recovery"
            );
        }
    }
}

pub(crate) fn logged_db(log_config: LogConfig) -> (Arc<Database>, Arc<SiloLogger>) {
    let db = Database::open(
        SiloConfig::for_testing()
            .with_spawn_epoch_advancer(true)
            .with_epoch(silo_core::EpochConfig {
                epoch_interval: Duration::from_millis(2),
                snapshot_interval_epochs: 5,
            }),
    );
    let logger = SiloLogger::install(log_config, &db).expect("install logger");
    (db, logger)
}

/// Every row of `table`, via a fresh worker (sorted by key, as `scan` is).
pub(crate) fn full_scan(db: &Arc<Database>, table: silo_core::TableId) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut w = db.register_worker();
    let mut txn = w.begin();
    let rows = txn.scan(table, b"", None, None).unwrap();
    txn.commit().unwrap();
    rows
}
