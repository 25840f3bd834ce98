//! The one metric the harness shares across threads: [`SharedCounter`].
//!
//! Counters and distributions that are *reported* live in
//! `senseaid-telemetry`'s `RegistrySnapshot`.

use std::fmt;

/// A thread-safe monotonically increasing counter.
///
/// Shared by reference across the parallel experiment harness's workers.
/// Reads use a relaxed load: the harness only ever totals it after the
/// worker scope has joined, at which point every increment is visible.
#[derive(Debug, Default)]
pub struct SharedCounter {
    value: std::sync::atomic::AtomicU64,
}

impl SharedCounter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        SharedCounter::default()
    }

    /// Adds `n` from any thread.
    pub fn add(&self, n: u64) {
        self.value
            .fetch_add(n, std::sync::atomic::Ordering::Relaxed);
    }

    /// The current count.
    pub fn value(&self) -> u64 {
        self.value.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl fmt::Display for SharedCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_counter_accumulates_across_threads() {
        let c = SharedCounter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| c.add(25));
            }
        });
        assert_eq!(c.value(), 100);
        assert_eq!(c.to_string(), "100");
    }
}
