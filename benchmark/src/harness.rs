//! What every workload shares: run parameters, the fixed engine
//! configuration, the thread-budget guard, repeated set-up, and the sliced
//! measurement loop.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use silo_core::{EpochConfig, SiloConfig};
use silo_log::LogConfig;

use crate::stats::{median, upper_quartile};

/// Set-ups per run at least; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
const SETUP_REPEATS_MAX: usize = 9;
const SETUP_BUDGET_S: f64 = 2.0;
/// Slices the measured phase is cut into; throughput is their upper quartile.
const SLICES: usize = 16;

#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny data sets, for the smoke run.
    pub quick: bool,
    /// `benchmark/out`: logs, checkpoints, traces and results live here.
    pub out_dir: PathBuf,
}

/// The result of running one workload once.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the human reader.
    pub errors: Vec<String>,
    /// Metric name (from `spec`) to value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Printed and stored, not gated: tails, sample counts, configuration.
    pub details: Vec<(String, String)>,
    pub stream_hash: u64,
}

impl Outcome {
    pub fn fail(&mut self, count: u64, what: impl FnOnce() -> String) {
        if count == 0 {
            return;
        }
        self.failed += count;
        if self.errors.len() < 8 {
            self.errors.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn detail(&mut self, key: &str, value: impl std::fmt::Display) {
        self.details.push((key.to_string(), value.to_string()));
    }
}

/// MemSilo as in `silo_bench::memsilo_config()`: 10 ms epochs, a snapshot
/// every 25 epochs, GC, snapshots and in-place overwrite on.
pub fn memsilo_config() -> SiloConfig {
    SiloConfig::default().with_epoch(EpochConfig {
        epoch_interval: Duration::from_millis(10),
        snapshot_interval_epochs: 25,
    })
}

/// Durable runs: one logger, fsync on, no compression, group commit per epoch.
pub fn log_config(dir: &Path) -> LogConfig {
    LogConfig::to_directory(dir, 1)
        .with_fsync(true)
        .with_compress(false)
}

pub const CONFIG_SUMMARY: &str = "MemSilo: 10 ms epochs, snapshot every 25 epochs, GC on, snapshots on, \
in-place overwrite on; durable runs: 1 logger, fsync on, no compression, group commit per epoch; closed loops";

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Load is generated with at most `nproc` threads or connections; a
/// workload that needs more is refused, not silently shrunk.
pub fn check_thread_budget(
    workload: &str,
    load_threads: usize,
    nproc: usize,
) -> Result<(), String> {
    if load_threads > nproc {
        Err(format!(
            "{workload} needs {load_threads} load threads but this machine has {nproc} cores; refusing to oversubscribe"
        ))
    } else {
        Ok(())
    }
}

/// Words in the kernel's 1024-bit CPU set.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restores the calling thread's CPU affinity when dropped.
pub struct CpuPin {
    original: [u64; CPU_SET_WORDS],
}

/// Pins the calling thread, and so every thread it or its children spawn
/// from now on, to the first CPU it may run on.
///
/// The wire workloads run like this. Spread over two virtual CPUs, every
/// hand-off between client, reader, worker and writer thread is a wake-up
/// of another virtual CPU, which costs the hypervisor 60 us of a 77 us
/// round trip here and varies by tens of percent from minute to minute; on
/// one CPU the same round trip takes 13 us and repeats within 2 %. What is
/// left is the software's own path, which is what the benchmark is for.
pub fn pin_to_one_cpu() -> Result<CpuPin, String> {
    let mut original = [0u64; CPU_SET_WORDS];
    // SAFETY: the mask pointer is valid for the `size_of_val` bytes passed,
    // and pid 0 names the calling thread.
    let got =
        unsafe { sched_getaffinity(0, std::mem::size_of_val(&original), original.as_mut_ptr()) };
    let first = original.iter().position(|w| *w != 0);
    let (Some(word), true) = (first, got == 0) else {
        return Err("cannot read the CPU affinity mask".to_string());
    };
    let mut one = [0u64; CPU_SET_WORDS];
    one[word] = 1 << original[word].trailing_zeros();
    // SAFETY: as above; the kernel only reads the mask.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err("cannot pin to one CPU".to_string());
    }
    Ok(CpuPin { original })
}

impl Drop for CpuPin {
    fn drop(&mut self) {
        // SAFETY: as in `pin_to_one_cpu`. A failure leaves the thread
        // pinned, which later workloads would show as a refused thread budget.
        unsafe {
            sched_setaffinity(
                0,
                std::mem::size_of_val(&self.original),
                self.original.as_ptr(),
            )
        };
    }
}

/// A fresh, empty directory under `out/` for one instance's log and
/// checkpoints.
pub fn fresh_dir(p: &Params, label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = p.out_dir.join(format!(
        "log-{label}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create log directory under benchmark/out");
    dir
}

#[repr(align(128))]
#[derive(Default)]
pub struct Padded<T>(pub T);

/// Shared between the coordinating thread and a workload's load threads.
pub struct Control {
    /// Set instead of measuring when the instance was only built to time
    /// its set-up; load threads then leave without running or verifying.
    pub discarded: AtomicBool,
    pub stop: AtomicBool,
    /// Spans are recorded only while this is set (odd slices of a traced run).
    pub tracing: AtomicBool,
    /// Operations completed so far, one counter per load thread, written
    /// only by its owner.
    pub done: Vec<Padded<AtomicU64>>,
    /// Load threads wait here once when set up and once more to start.
    pub gate: Barrier,
    /// Load threads meet here, without the coordinator: between loading and
    /// warming up, and after the stop flag before verifying.
    pub finished: Barrier,
}

impl Control {
    pub fn new(load_threads: usize) -> Control {
        Control {
            discarded: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            tracing: AtomicBool::new(false),
            done: (0..load_threads)
                .map(|_| Padded(AtomicU64::new(0)))
                .collect(),
            gate: Barrier::new(load_threads + 1),
            finished: Barrier::new(load_threads),
        }
    }

    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Waits for the load threads to finish setting up.
    pub fn wait_ready(&self) {
        self.gate.wait();
    }

    /// Releases load threads parked after set-up so that they exit.
    pub fn discard(&self) {
        self.discarded.store(true, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
        self.gate.wait();
    }

    /// Load-thread side of the two gate waits: reports set-up done, waits
    /// for the start, and says whether to run (`false` = discarded).
    pub fn ready_then_go(&self) -> bool {
        self.gate.wait();
        self.gate.wait();
        !self.discarded.load(Ordering::SeqCst)
    }

    pub fn total_done(&self) -> u64 {
        self.done.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

/// Runs `setup` at least [`SETUP_REPEATS`] times, and on until the set-ups
/// have taken [`SETUP_BUDGET_S`] together or [`SETUP_REPEATS_MAX`] are done,
/// so that a set-up of a fraction of a second, which one scheduling hiccup
/// can double, is timed often enough for its median to hold still.
/// Discards all but the last instance; returns it with the median time.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS_MAX);
    let mut last = None;
    while times.len() < SETUP_REPEATS
        || (times.len() < SETUP_REPEATS_MAX && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        if let Some(previous) = last.take() {
            discard(previous);
        }
        let start = Instant::now();
        last = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Throughput of the measured phase, slice by slice.
#[derive(Debug, Default, Clone)]
pub struct Slices {
    /// Operations per second in each slice with tracing off.
    pub untraced: Vec<f64>,
    /// Operations per second in each slice with tracing on.
    pub traced: Vec<f64>,
    pub elapsed_s: f64,
    pub ops: u64,
}

impl Slices {
    /// The run's throughput: the upper quartile of its untraced slices. On a
    /// shared virtual machine interference only ever slows a slice down (the
    /// wire workloads spend whole tenths of a second in a slow scheduling
    /// regime), while a slower engine slows every slice; over ten seeds the
    /// upper quartile spreads half as much as the median on `net_read` and
    /// no more on the rest.
    pub fn ops_per_s(&self) -> f64 {
        upper_quartile(&self.untraced)
    }

    /// Each slice's rate in thousands per second, for the human reader.
    pub fn describe(&self) -> String {
        let list = |v: &[f64]| {
            v.iter()
                .map(|r| format!("{:.1}", r / 1e3))
                .collect::<Vec<_>>()
                .join(" ")
        };
        if self.traced.is_empty() {
            format!("untraced k/s: {}", list(&self.untraced))
        } else {
            format!(
                "untraced k/s: {}; traced k/s: {}",
                list(&self.untraced),
                list(&self.traced)
            )
        }
    }

    /// Share of throughput lost while spans are recorded.
    pub fn trace_overhead_pct(&self) -> f64 {
        let base = upper_quartile(&self.untraced);
        if base == 0.0 || self.traced.is_empty() {
            0.0
        } else {
            (1.0 - upper_quartile(&self.traced) / base) * 100.0
        }
    }
}

/// Measures for `seconds`: releases the load threads, samples their
/// counters at slice boundaries, then raises the stop flag. In a traced run
/// every second slice records spans, so traced and untraced throughput are
/// measured on the same database state.
pub fn measure(control: &Control, seconds: f64, trace: bool) -> Slices {
    let slice = Duration::from_secs_f64(seconds / SLICES as f64);
    let mut out = Slices::default();
    control.gate.wait();
    let start = Instant::now();
    let (mut last_t, mut last_n) = (start, control.total_done());
    for i in 0..SLICES {
        let tracing = trace && i % 2 == 1;
        control.tracing.store(tracing, Ordering::Relaxed);
        let deadline = start + slice * (i as u32 + 1);
        std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
        let (t, n) = (Instant::now(), control.total_done());
        let rate = (n - last_n) as f64 / (t - last_t).as_secs_f64();
        if tracing {
            out.traced.push(rate);
        } else {
            out.untraced.push(rate);
        }
        (last_t, last_n) = (t, n);
    }
    control.tracing.store(false, Ordering::Relaxed);
    control.stop.store(true, Ordering::Relaxed);
    out.elapsed_s = start.elapsed().as_secs_f64();
    out.ops = last_n;
    out
}

/// FNV-1a, for op-stream fingerprints.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = if hash == 0 {
        0xcbf2_9ce4_8422_2325
    } else {
        hash
    };
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_budget_refuses_more_threads_than_cores() {
        assert!(check_thread_budget("w", 2, 2).is_ok());
        assert!(check_thread_budget("w", 1, 2).is_ok());
        let err = check_thread_budget("w", 3, 2).unwrap_err();
        assert!(err.contains("refusing"), "{err}");
    }

    #[test]
    fn pinning_leaves_one_cpu_and_dropping_the_pin_restores_the_rest() {
        let before = nproc();
        {
            let _pin = pin_to_one_cpu().unwrap();
            assert_eq!(nproc(), 1);
            assert_eq!(
                std::thread::spawn(nproc).join().unwrap(),
                1,
                "threads inherit the pin"
            );
        }
        assert_eq!(nproc(), before);
    }

    #[test]
    fn repeat_setup_keeps_the_last_instance_and_discards_the_rest() {
        let mut made = 0;
        let mut discarded = Vec::new();
        let (last, secs) = repeat_setup(
            || {
                made += 1;
                made
            },
            |i| discarded.push(i),
        );
        // An instant set-up never uses up the time budget.
        assert_eq!(last, SETUP_REPEATS_MAX);
        assert_eq!(discarded, (1..SETUP_REPEATS_MAX).collect::<Vec<_>>());
        assert!(secs >= 0.0);
    }

    #[test]
    fn fixed_configuration_is_memsilo_with_fsync_logging() {
        let c = memsilo_config();
        assert!(c.overwrite_in_place && c.enable_snapshots && c.enable_gc && !c.global_tid);
        assert_eq!(c.epoch.epoch_interval, Duration::from_millis(10));
        let l = log_config(Path::new("x"));
        assert!(l.fsync && !l.compress && l.num_loggers == 1);
    }
}
