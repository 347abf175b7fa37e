//! Deterministic fault injection for the durability pipeline.
//!
//! A [`FaultPlan`] is a [`Schedule`] of faults (by kind) at specific
//! operation counts of specific [`FaultSite`]s; the same generic core carries
//! `silo-net`'s wire faults. A plan configured through
//! [`crate::LogConfig::fault`] is consulted inside the log sink's append,
//! sync and rotate, and at the checkpointer's crash points; without one, each
//! of those calls costs one `Option` check.
//!
//! Plans are either built explicitly ([`Schedule::new`] +
//! [`Schedule::fail_at`], for tests that need one precise fault) or derived
//! from a seed by [`FaultPlan::profile`], for the fault-matrix suite: the
//! same seed always yields the same schedule, so every CI failure is
//! reproducible from the printed seed alone.

use parking_lot::Mutex;

/// xorshift64* — deterministic, dependency-free PRNG for seeded schedules.
pub fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// splitmix64's output function: spreads every bit of `seed` over the whole
/// word, so seeds that differ in one low bit start unrelated streams.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug)]
struct State<S, K> {
    /// Operations counted so far, per site seen.
    ops: Vec<(S, u64)>,
    /// Faults not fired yet: `(site, at, kind)` fires on the `at`-th
    /// operation at `site` (1-based).
    pending: Vec<(S, u64, K)>,
    /// Faults fired so far.
    injected: u64,
}

/// A deterministic schedule of faults of kind `K` at operation counts of
/// sites `S` — the failpoint core of [`FaultPlan`] and `silo-net`'s
/// wire-fault plan. Every user of one schedule counts into the same per-site
/// operation counters.
#[derive(Debug)]
pub struct Schedule<S, K> {
    state: Mutex<State<S, K>>,
}

impl<S: Copy + PartialEq, K> Default for Schedule<S, K> {
    fn default() -> Self {
        Schedule::new()
    }
}

impl<S: Copy + PartialEq, K> Schedule<S, K> {
    /// An empty schedule (add faults with [`Schedule::fail_at`]).
    pub fn new() -> Self {
        Schedule {
            state: Mutex::new(State {
                ops: Vec::new(),
                pending: Vec::new(),
                injected: 0,
            }),
        }
    }

    /// Schedules `kind` to fire on the `nth` operation (1-based) at `site`.
    pub fn fail_at(self, site: S, nth: u64, kind: K) -> Self {
        self.state.lock().pending.push((site, nth.max(1), kind));
        self
    }

    /// Counts one operation at `site` and returns the fault scheduled for it,
    /// if any. Each scheduled fault fires at most once.
    pub fn next_fault(&self, site: S) -> Option<K> {
        let mut state = self.state.lock();
        let count = match state.ops.iter_mut().find(|(s, _)| *s == site) {
            Some((_, count)) => {
                *count += 1;
                *count
            }
            None => {
                state.ops.push((site, 1));
                1
            }
        };
        let hit = state
            .pending
            .iter()
            .position(|(s, at, _)| *s == site && *at == count)?;
        state.injected += 1;
        Some(state.pending.swap_remove(hit).2)
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.state.lock().injected
    }

    /// Whether every scheduled fault has fired (a test that expects its
    /// whole schedule to be reached asserts this).
    pub fn exhausted(&self) -> bool {
        self.state.lock().pending.is_empty()
    }
}

/// Where in the durability pipeline a fault can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A logger thread appending one group-commit round to its sink.
    Append,
    /// A logger thread syncing its sink.
    Sync,
    /// A logger thread rotating to a fresh log segment.
    Rotate,
    /// A checkpoint slice writer, between tables (mid-checkpoint).
    CkptSlice,
    /// The checkpointer, after the slices are durable but before the
    /// `MANIFEST` temp file is renamed into place.
    CkptBeforeManifest,
    /// The checkpointer, right after the `MANIFEST` is published (checkpoint
    /// is complete and durable on disk, nothing else has happened).
    CkptAfterManifest,
    /// The checkpointer, after the manifest is published but before the log
    /// is truncated against the new checkpoint.
    CkptBeforeTruncate,
}

/// What kind of failure to inject.
///
/// Each site carries out only some kinds, and ignores a scheduled fault of
/// any other kind (the operation still counts):
///
/// | site | kinds carried out |
/// |---|---|
/// | `Append` | `Transient`, `Permanent`, `NoSpace`, `SyncStall`, `ShortWrite`, `BitFlip` |
/// | `Sync`, `Rotate` | `Transient`, `Permanent`, `NoSpace`, `SyncStall` |
/// | the `Ckpt*` crash points | `Crash` |
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// A transient I/O error: the operation fails without side effects and a
    /// retry may succeed.
    Transient,
    /// A permanent I/O error: the operation fails and retries cannot help
    /// (dead device).
    Permanent,
    /// The device is out of space (`ENOSPC`). Retryable — log truncation can
    /// free space.
    NoSpace,
    /// A short (torn) write: only a prefix of the data reaches the sink, then
    /// the device dies. Models a crash tearing the last append.
    ShortWrite,
    /// Silent corruption: one bit of the appended data is flipped and the
    /// write then *succeeds*. Only checksums can catch this.
    BitFlip {
        /// Which bit of the payload to flip (taken modulo the payload size).
        bit: u64,
    },
    /// The sync succeeds, but only after stalling this long (slow disk).
    SyncStall {
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// Abort the enclosing operation in place, without cleanup — the
    /// checkpointer's crash points use this to simulate `kill -9` at
    /// protocol-critical instants.
    Crash,
}

/// A deterministic schedule of durability faults, shared by every sink and
/// the checkpointer of one logging subsystem.
pub type FaultPlan = Schedule<FaultSite, FaultKind>;

impl FaultPlan {
    /// A schedule of one fault *family* (so tests can assert family-specific
    /// invariants) with seed-determined positions:
    ///
    /// | profile | injected faults |
    /// |---|---|
    /// | `transient` | bursts of retryable errors on append/sync |
    /// | `permanent` | one permanent error on append or sync |
    /// | `torn` | one short (torn) write on append |
    /// | `corrupt` | one silent bit flip on append |
    /// | `enospc` | `ENOSPC` on rotate and append |
    /// | `stall` | sync stalls |
    /// | `crash` | one checkpointer crash point |
    ///
    /// The seed is mixed through splitmix64, and every choice is taken from
    /// the high 32 bits of a draw: the low bits of xorshift64*'s first draws
    /// from nearby seeds are not independent (taken `% 4` from a lightly
    /// mixed seed, they never named two of the four crash sites).
    pub fn profile(profile: &str, seed: u64) -> FaultPlan {
        let mut state = splitmix64(seed) | 1;
        let mut plan = FaultPlan::new();
        let draw = |state: &mut u64| xorshift(state) >> 32;
        let pick = |state: &mut u64, range: u64| 1 + draw(state) % range;
        match profile {
            "transient" => {
                // A burst: several consecutive appends/syncs fail transiently,
                // exercising the backoff loop more than once per round.
                let start = pick(&mut state, 12);
                for i in 0..1 + draw(&mut state) % 3 {
                    plan = plan.fail_at(FaultSite::Append, start + i, FaultKind::Transient);
                }
                plan = plan.fail_at(FaultSite::Sync, pick(&mut state, 12), FaultKind::Transient);
            }
            "permanent" => {
                let site = if draw(&mut state) % 2 == 0 {
                    FaultSite::Append
                } else {
                    FaultSite::Sync
                };
                plan = plan.fail_at(site, pick(&mut state, 16), FaultKind::Permanent);
            }
            "torn" => {
                plan = plan.fail_at(
                    FaultSite::Append,
                    pick(&mut state, 16),
                    FaultKind::ShortWrite,
                );
            }
            "corrupt" => {
                plan = plan.fail_at(
                    FaultSite::Append,
                    pick(&mut state, 16),
                    FaultKind::BitFlip {
                        bit: draw(&mut state),
                    },
                );
            }
            "enospc" => {
                plan = plan
                    .fail_at(FaultSite::Rotate, 1, FaultKind::NoSpace)
                    .fail_at(FaultSite::Append, pick(&mut state, 12), FaultKind::NoSpace);
            }
            "stall" => {
                plan = plan
                    .fail_at(
                        FaultSite::Sync,
                        pick(&mut state, 8),
                        FaultKind::SyncStall {
                            millis: 5 + draw(&mut state) % 40,
                        },
                    )
                    .fail_at(
                        FaultSite::Sync,
                        8 + pick(&mut state, 8),
                        FaultKind::SyncStall {
                            millis: 5 + draw(&mut state) % 40,
                        },
                    );
            }
            "crash" => {
                let site = match draw(&mut state) % 4 {
                    0 => FaultSite::CkptSlice,
                    1 => FaultSite::CkptBeforeManifest,
                    2 => FaultSite::CkptAfterManifest,
                    _ => FaultSite::CkptBeforeTruncate,
                };
                plan = plan.fail_at(site, pick(&mut state, 3), FaultKind::Crash);
            }
            other => panic!("unknown fault profile {other:?}"),
        }
        plan
    }
}

/// The error payload of an injected checkpoint crash, so callers can tell an
/// injected abort (skip cleanup — simulate `kill -9`) from a real I/O error.
#[derive(Debug)]
pub struct InjectedCrash(pub FaultSite);

impl std::fmt::Display for InjectedCrash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected crash at {:?}", self.0)
    }
}

impl std::error::Error for InjectedCrash {}

/// Whether an I/O error is an injected checkpoint crash.
pub fn is_injected_crash(e: &std::io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<InjectedCrash>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduled_fault_fires_exactly_once_at_its_count() {
        let plan = FaultPlan::new().fail_at(FaultSite::Append, 3, FaultKind::Transient);
        assert_eq!(plan.next_fault(FaultSite::Append), None);
        assert_eq!(plan.next_fault(FaultSite::Append), None);
        assert_eq!(
            plan.next_fault(FaultSite::Append),
            Some(FaultKind::Transient)
        );
        assert_eq!(plan.next_fault(FaultSite::Append), None);
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn sites_count_independently() {
        let plan = FaultPlan::new()
            .fail_at(FaultSite::Append, 1, FaultKind::Permanent)
            .fail_at(FaultSite::Sync, 2, FaultKind::NoSpace);
        assert_eq!(plan.next_fault(FaultSite::Sync), None);
        assert_eq!(
            plan.next_fault(FaultSite::Append),
            Some(FaultKind::Permanent)
        );
        assert_eq!(plan.next_fault(FaultSite::Sync), Some(FaultKind::NoSpace));
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        for profile in [
            "transient",
            "permanent",
            "torn",
            "corrupt",
            "enospc",
            "stall",
            "crash",
        ] {
            let a = FaultPlan::profile(profile, 42);
            let b = FaultPlan::profile(profile, 42);
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "profile {profile} must be deterministic"
            );
            assert!(!a.exhausted(), "profile {profile} schedules something");
        }
    }

    #[test]
    fn sixteen_seeds_reach_every_crash_and_permanent_site() {
        let sites = |profile: &str| {
            let mut seen = Vec::new();
            for seed in 0..16 {
                let plan = FaultPlan::profile(profile, seed);
                let state = plan.state.lock();
                for &(site, _, _) in &state.pending {
                    if !seen.contains(&site) {
                        seen.push(site);
                    }
                }
            }
            seen
        };
        let crash = sites("crash");
        for site in [
            FaultSite::CkptSlice,
            FaultSite::CkptBeforeManifest,
            FaultSite::CkptAfterManifest,
            FaultSite::CkptBeforeTruncate,
        ] {
            assert!(crash.contains(&site), "no crash seed picks {site:?}");
        }
        let permanent = sites("permanent");
        for site in [FaultSite::Append, FaultSite::Sync] {
            assert!(
                permanent.contains(&site),
                "no permanent seed picks {site:?}"
            );
        }
    }
}
