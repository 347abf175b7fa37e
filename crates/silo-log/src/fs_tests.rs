// Power-loss states (§4.10: acked means durable). Every crash the other
// tests make keeps the page cache, so a byte written but never synced, or a
// name whose directory was never fsynced, always survives them. Here
// `RecordingFs` does each call on the real file system under one root and
// logs it, with its bytes, in one total order, and `crash_states` builds
// from that log the states a power loss could leave, under POSIX rules:
//
// * a file keeps its bytes up to its last `sync_data`, plus any prefix of
//   the bytes written after it;
// * a name created, renamed or removed survives only if its parent
//   directory was fsynced after the call; otherwise either outcome is
//   possible. A `remove_dir` counts as one removal of the directory.

/// The prefix oracle's workload (`tests/prefix_oracle.rs`).
mod prefix {
    use crate::fault::xorshift;
    include!("../tests/common/prefix_workload.rs");
}

/// One call that changes the file system, its paths relative to the
/// recorder's root (`""` is the root), or a durable epoch the test observed.
#[derive(Debug, Clone)]
enum Call {
    Create(PathBuf),
    Write(PathBuf, Vec<u8>),
    Truncate(PathBuf, u64),
    SyncData(PathBuf),
    Mkdir(PathBuf),
    Rename(PathBuf, PathBuf),
    Remove(PathBuf),
    RemoveDir(PathBuf),
    SyncDir(PathBuf),
    Durable(u64),
}

type CallLog = Arc<Mutex<Vec<Call>>>;

/// The real file system under `root`, logging every call that changes it.
struct RecordingFs {
    root: PathBuf,
    log: CallLog,
}

impl RecordingFs {
    fn new(root: &Path) -> Self {
        RecordingFs {
            root: root.to_path_buf(),
            log: CallLog::default(),
        }
    }

    fn rel(&self, path: &Path) -> PathBuf {
        let rel = path.strip_prefix(&self.root);
        rel.expect("a path under the recorded root").to_path_buf()
    }

    /// Logs `call` once `result` shows the call was done.
    fn logged(&self, result: io::Result<()>, call: Call) -> io::Result<()> {
        result.map(|()| self.log.lock().push(call))
    }
}

impl Fs for RecordingFs {
    fn open(&self, path: &Path, how: Open) -> io::Result<Box<dyn FsFile>> {
        let file = RealFs.open(path, how)?;
        if how != Open::Existing {
            self.log.lock().push(Call::Create(self.rel(path)));
        }
        Ok(Box::new(RecordingFile {
            file,
            path: self.rel(path),
            log: Arc::clone(&self.log),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Box<dyn io::Read>> {
        RealFs.read(path)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        RealFs.len(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        RealFs.list(dir)
    }

    fn mkdir(&self, path: &Path) -> io::Result<()> {
        self.logged(RealFs.mkdir(path), Call::Mkdir(self.rel(path)))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let call = Call::Rename(self.rel(from), self.rel(to));
        self.logged(RealFs.rename(from, to), call)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.logged(RealFs.remove(path), Call::Remove(self.rel(path)))
    }

    fn remove_dir(&self, path: &Path) -> io::Result<()> {
        self.logged(RealFs.remove_dir(path), Call::RemoveDir(self.rel(path)))
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.logged(RealFs.sync_dir(dir), Call::SyncDir(self.rel(dir)))
    }
}

struct RecordingFile {
    file: Box<dyn FsFile>,
    path: PathBuf,
    log: CallLog,
}

impl io::Write for RecordingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.file.write(buf)?;
        let call = Call::Write(self.path.clone(), buf[..n].to_vec());
        self.log.lock().push(call);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl FsFile for RecordingFile {
    fn sync_data(&self) -> io::Result<()> {
        self.file.sync_data()?;
        self.log.lock().push(Call::SyncData(self.path.clone()));
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.truncate(len)?;
        self.log.lock().push(Call::Truncate(self.path.clone(), len));
        Ok(())
    }
}

/// What a power loss leaves: each surviving name with `None` for a
/// directory, or the file's bytes.
type CrashState = BTreeMap<PathBuf, Option<Vec<u8>>>;

/// The directory holding `path`.
fn dir_of(path: &Path) -> &Path {
    path.parent().unwrap_or(Path::new(""))
}

/// A state a power loss could leave once `log`'s calls are done, drawn
/// with `rng`.
fn crash_state(log: &[Call], rng: &mut u64) -> CrashState {
    // Whether each name change survives: surely if its directory is fsynced
    // later, else by a coin.
    let mut synced = BTreeSet::new();
    let mut survives = vec![false; log.len()];
    for (i, call) in log.iter().enumerate().rev() {
        let path = match call {
            Call::SyncDir(dir) => {
                synced.insert(dir.as_path());
                continue;
            }
            Call::Create(path)
            | Call::Mkdir(path)
            | Call::Rename(_, path)
            | Call::Remove(path)
            | Call::RemoveDir(path) => path,
            _ => continue,
        };
        survives[i] = synced.contains(dir_of(path)) || xorshift(rng) >> 63 == 0;
    }
    // Each file's bytes and synced length; the file each name the process
    // used refers to; and the names that survive, `None` for a directory.
    let mut files: Vec<(Vec<u8>, usize)> = Vec::new();
    let mut open: BTreeMap<&Path, usize> = BTreeMap::new();
    let mut kept: BTreeMap<&Path, Option<usize>> = BTreeMap::new();
    for (i, call) in log.iter().enumerate() {
        let dir_kept = |path: &Path, kept: &BTreeMap<&Path, Option<usize>>| {
            let dir = dir_of(path);
            dir.as_os_str().is_empty() || kept.get(dir) == Some(&None)
        };
        match call {
            Call::Create(path) => {
                files.push((Vec::new(), 0));
                open.insert(path, files.len() - 1);
                if survives[i] && dir_kept(path, &kept) {
                    kept.insert(path, Some(files.len() - 1));
                }
            }
            Call::Write(path, bytes) => files[open[path.as_path()]].0.extend_from_slice(bytes),
            Call::Truncate(path, len) => {
                let (bytes, synced) = &mut files[open[path.as_path()]];
                bytes.truncate(*len as usize);
                *synced = (*synced).min(bytes.len());
            }
            Call::SyncData(path) => {
                let (bytes, synced) = &mut files[open[path.as_path()]];
                *synced = bytes.len();
            }
            Call::Mkdir(path) => {
                if survives[i] && dir_kept(path, &kept) {
                    kept.insert(path, None);
                }
            }
            Call::Rename(from, to) => {
                if let Some(file) = open.remove(from.as_path()) {
                    open.insert(to, file);
                }
                match kept.remove(from.as_path()) {
                    Some(entry) if survives[i] => kept.insert(to, entry),
                    // A lost rename leaves the file under its old name.
                    Some(entry) => kept.insert(from, entry),
                    None => None,
                };
            }
            Call::Remove(path) => {
                open.remove(path.as_path());
                if survives[i] {
                    kept.remove(path.as_path());
                }
            }
            Call::RemoveDir(path) => {
                open.retain(|name, _| !name.starts_with(path));
                if survives[i] {
                    kept.retain(|name, _| !name.starts_with(path));
                }
            }
            Call::SyncDir(_) | Call::Durable(_) => {}
        }
    }
    kept.into_iter()
        .map(|(path, file)| {
            let bytes = file.map(|file| {
                let (bytes, synced) = &files[file];
                let torn = xorshift(rng) as usize % (bytes.len() - synced + 1);
                bytes[..synced + torn].to_vec()
            });
            (path.to_path_buf(), bytes)
        })
        .collect()
}

/// A nonzero `xorshift` state whose low bits differ between nearby seeds.
fn spread(seed: u64) -> u64 {
    seed.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

/// States drawn from `log` per run.
const CRASH_STATES: usize = 12;

/// Power-loss states of `log`, drawn from `seed`: one after a call drawn
/// from each of `CRASH_STATES` equal stretches of the log, so the states
/// span the whole run, and one right after each rename, the commit point of
/// a publish, whose window may be a few calls wide.
fn crash_states(log: &[Call], seed: u64) -> Vec<(usize, CrashState)> {
    assert!(log.len() >= CRASH_STATES, "a log of {} calls", log.len());
    let mut rng = spread(seed);
    let mut points: Vec<usize> = (0..CRASH_STATES)
        .map(|s| {
            let (lo, hi) = (
                log.len() * s / CRASH_STATES,
                log.len() * (s + 1) / CRASH_STATES,
            );
            lo + 1 + xorshift(&mut rng) as usize % (hi - lo)
        })
        .collect();
    let renames = log
        .iter()
        .enumerate()
        .filter(|(_, call)| matches!(call, Call::Rename(..)));
    points.extend(renames.map(|(i, _)| i + 1));
    points.sort_unstable();
    points.dedup();
    points
        .into_iter()
        .map(|at| (at, crash_state(&log[..at], &mut rng)))
        .collect()
}

/// The names the process saw once `log`'s calls were done.
fn live_names(log: &[Call]) -> BTreeSet<&Path> {
    let mut names = BTreeSet::new();
    for call in log {
        match call {
            Call::Create(path) | Call::Mkdir(path) => {
                names.insert(path.as_path());
            }
            Call::Rename(from, to) => {
                names.remove(from.as_path());
                names.insert(to.as_path());
            }
            Call::Remove(path) => {
                names.remove(path.as_path());
            }
            Call::RemoveDir(path) => names.retain(|name| !name.starts_with(path)),
            _ => {}
        }
    }
    names
}

#[test]
fn crash_states_keep_synced_bytes_and_fsynced_names() {
    let path = |s: &str| PathBuf::from(s);
    let log = vec![
        Call::Create(path("a")),
        Call::SyncDir(path("")),
        Call::Write(path("a"), b"xy".to_vec()),
        Call::SyncData(path("a")),
        Call::Write(path("a"), b"z".to_vec()),
        Call::Create(path("b")),
        Call::Write(path("b"), b"b".to_vec()),
        Call::SyncData(path("b")),
        Call::Create(path("t")),
        Call::Write(path("t"), b"t".to_vec()),
        Call::SyncData(path("t")),
        Call::Rename(path("t"), path("m")),
    ];
    let (mut lengths, mut b, mut renamed) = (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
    for seed in 0..64 {
        let state = crash_state(&log, &mut spread(seed));
        // `a`'s name was fsynced, and so were its first two bytes.
        let a = state[&path("a")].as_deref();
        assert!(a == Some(b"xy") || a == Some(b"xyz"), "{a:?}");
        lengths.insert(a.map(<[u8]>::len));
        // `b`'s name and the rename were not: either outcome, and the
        // renamed file under one name at most.
        b.insert(state.contains_key(&path("b")));
        assert!(!(state.contains_key(&path("t")) && state.contains_key(&path("m"))));
        renamed.insert(state.contains_key(&path("m")));
    }
    assert_eq!(lengths.len(), 2, "the unsynced byte survives or not");
    assert_eq!(
        (b.len(), renamed.len()),
        (2, 2),
        "unsynced names survive or not"
    );
}

/// Builds `state` in a fresh directory, recovers it, and compares the
/// table with the fold of `committed` to the recovered horizon, which must
/// cover every durable epoch noted in `log`. A failing state's directory
/// stays under `SILO_FAULT_DIR` (or the temp dir).
fn check_state(
    seed: u64,
    log: &[Call],
    state: &CrashState,
    committed: &mut [prefix::Committed],
) -> Result<(), String> {
    let root = std::env::var_os("SILO_FAULT_DIR").map_or_else(std::env::temp_dir, PathBuf::from);
    let id = format!("{seed}-{}-{}", log.len(), std::process::id());
    let dir = root.join(format!("silo-crash-state-{id}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (path, bytes) in state {
        match bytes {
            None => std::fs::create_dir(dir.join(path)).unwrap(),
            Some(bytes) => std::fs::write(dir.join(path), bytes).unwrap(),
        }
    }
    let acked = log.iter().filter_map(|call| match call {
        Call::Durable(epoch) => Some(*epoch),
        _ => None,
    });
    let acked = acked.max().unwrap_or(0);
    let db = prefix::open_db();
    let table = db.create_table("t").unwrap();
    let outcome = match recover_directory(&db, &dir, &RecoveryOptions { replay_threads: 2 }) {
        Err(e) => Err(format!("recovery failed: {e}")),
        Ok(report) if report.durable_epoch < acked => Err(format!(
            "horizon {} is below the acknowledged durable epoch {acked}",
            report.durable_epoch
        )),
        Ok(report) => {
            let recovered: BTreeMap<_, _> = full_scan(&db, table).into_iter().collect();
            let expected = prefix::fold(committed, report.durable_epoch);
            let mut keys = recovered.keys().chain(expected.keys());
            match keys.find(|k| recovered.get(*k) != expected.get(*k)) {
                None => Ok(()),
                Some(key) => {
                    let show =
                        |v: Option<&Vec<u8>>| v.map(|v| String::from_utf8_lossy(v).into_owned());
                    Err(format!(
                        "horizon {} (checkpoint {}): key {} recovered as {:?}, the fold has {:?}",
                        report.durable_epoch,
                        report.checkpoint_epoch,
                        String::from_utf8_lossy(key),
                        show(recovered.get(key)),
                        show(expected.get(key)),
                    ))
                }
            }
        }
    };
    db.stop_epoch_advancer();
    if outcome.is_ok() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    outcome.map_err(|why| {
        let live = live_names(log);
        let lost: Vec<_> = live
            .iter()
            .filter(|name| !state.contains_key(**name))
            .collect();
        let back: Vec<_> = state
            .keys()
            .filter(|name| !live.contains(name.as_path()))
            .collect();
        format!(
            "seed {seed}, power loss after call {} ({:?}): {why}; names lost {lost:?}, \
             names back {back:?}; state left in {}",
            log.len(),
            log.last().map(|call| match call {
                Call::Write(path, bytes) => format!("Write({path:?}, {} bytes)", bytes.len()),
                call => format!("{call:?}"),
            }),
            dir.display()
        )
    })
}

/// How long each seed's workload runs under the recorder.
const CRASH_RUN: Duration = Duration::from_millis(250);

/// The keys the sessions write. Over the prefix oracle's 64, each key is
/// rewritten every epoch, so a lost checkpoint or segment shows only in its
/// last epochs; over this many, most keys last written before a checkpoint
/// are still live in its slices.
const CRASH_KEYS: u64 = 1 << 14;

/// One seed: the prefix oracle's workload under a `RecordingFs` — two
/// sessions, two fsyncing loggers whose 16 KiB segments rotate and are
/// truncated, and a checkpointer beside them — then each sampled state
/// checked. Returns the failures.
fn crash_case(seed: u64) -> Vec<String> {
    let root = scratch_dir("crash-run");
    let fs = Arc::new(RecordingFs::new(&root));
    let db = prefix::open_db();
    let config = LogConfig::to_directory(&*root, 2)
        .with_fsync(true)
        .with_segment_bytes(16 * 1024);
    let logger = SiloLogger::new_on(config, Arc::clone(db.epochs()), Arc::clone(&fs) as _);
    let logger = logger.expect("start the loggers");
    db.set_commit_hook(Arc::clone(&logger) as _)
        .ok()
        .expect("no other hook");
    let table = db.create_table("t").unwrap();
    let ckpt = Checkpointer::spawn(
        Arc::clone(&db),
        Arc::clone(&logger),
        CheckpointConfig {
            interval: Duration::from_millis(40),
            writers: 2,
            ..CheckpointConfig::new(&*root)
        },
    );
    let stop = Arc::new(AtomicBool::new(false));
    let sessions: Vec<_> = (0..2)
        .map(|s| {
            let (db, stop) = (Arc::clone(&db), Arc::clone(&stop));
            std::thread::spawn(move || {
                prefix::session(db, table, CRASH_KEYS, seed * 2 + s + 1, stop)
            })
        })
        .collect();
    // Note each durable epoch observed, in the same log as the calls.
    let mut noted = 0;
    let deadline = Instant::now() + CRASH_RUN;
    while Instant::now() < deadline {
        let durable = logger.durable_epoch();
        if durable > noted {
            fs.log.lock().push(Call::Durable(durable));
            noted = durable;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    ckpt.shutdown();
    logger.shutdown();
    stop.store(true, Ordering::Relaxed);
    let mut committed: Vec<_> = sessions
        .into_iter()
        .flat_map(|s| s.join().expect("session panicked"))
        .collect();
    db.stop_epoch_advancer();
    let log = fs.log.lock().clone();
    let checkpoints = ckpt.stats().completed;
    let truncated = log
        .iter()
        .filter(|call| matches!(call, Call::Remove(_)))
        .count();
    assert!(
        truncated > 0,
        "seed {seed}: {checkpoints} checkpoints truncated no segment"
    );
    eprintln!(
        "crash states seed {seed}: {} calls, {} txns, {checkpoints} checkpoints, \
         {truncated} segments truncated, durable epoch {noted}",
        log.len(),
        committed.len()
    );
    crash_states(&log, seed)
        .into_iter()
        .filter_map(|(at, state)| check_state(seed, &log[..at], &state, &mut committed).err())
        .collect()
}

#[test]
fn every_sampled_power_loss_state_recovers_the_committed_prefix() {
    let seeds = std::env::var("SILO_FAULT_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok());
    let failures: Vec<String> = (0..seeds.unwrap_or(2)).flat_map(crash_case).collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
