//! Helpers shared by the workspace's integration tests.

/// Worker-thread count for concurrency tests: `SILO_TEST_THREADS` if set
/// (the oversubscribed-stress runs use 4 on a 1-core box), else `default`.
pub fn test_threads(default: usize) -> usize {
    std::env::var("SILO_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
