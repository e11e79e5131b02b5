//! The open-loop release schedule and the process-wide clock every
//! stamp is taken on.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A fixed-rate schedule: tuple `i` is due at `start + i / rate`,
/// whatever the system under test is doing. Latency is timed from the
/// due time, so a stall charges every tuple it delays.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Schedule {
    pub start_ns: u64,
    pub rate_per_s: f64,
}

impl Schedule {
    pub fn due_ns(&self, i: u64) -> u64 {
        self.start_ns + (i as f64 * 1e9 / self.rate_per_s) as u64
    }

    /// Block until tuple `i` is due; returns `(due, lateness)` in ns.
    /// Sleeping (not spinning) leaves the one CPU the run is pinned to
    /// to the pipelines; the wake-up slack it costs is reported as
    /// `runtime.gen_late_p99_us` and is inside every latency.
    pub fn wait(&self, i: u64) -> (u64, u64) {
        let due = self.due_ns(i);
        let now = now_ns();
        if now < due {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        (due, lateness_ns(now_ns(), due))
    }
}

pub fn lateness_ns(now_ns: u64, due_ns: u64) -> u64 {
    now_ns.saturating_sub(due_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced_from_the_start() {
        let s = Schedule {
            start_ns: 1_000,
            rate_per_s: 100_000.0,
        };
        assert_eq!(s.due_ns(0), 1_000);
        assert_eq!(s.due_ns(1), 11_000);
        assert_eq!(s.due_ns(100_000), 1_000 + 1_000_000_000);
        // No drift: the millionth due time is exact, not a sum of gaps.
        assert_eq!(s.due_ns(1_000_000), 1_000 + 10_000_000_000);
    }

    #[test]
    fn lateness_is_zero_when_early() {
        assert_eq!(lateness_ns(50, 80), 0);
        assert_eq!(lateness_ns(80, 80), 0);
        assert_eq!(lateness_ns(95, 80), 15);
    }

    #[test]
    fn wait_never_releases_early_and_counts_from_the_due_time() {
        let s = Schedule {
            start_ns: now_ns() + 2_000_000,
            rate_per_s: 1_000.0,
        };
        let (due, late) = s.wait(3);
        assert_eq!(due, s.due_ns(3));
        let now = now_ns();
        assert!(now >= due, "released {} ns early", due - now);
        assert!(late <= now - due);
        // A tuple already overdue is released at once and reports how late.
        let (due0, late0) = s.wait(0);
        assert!(late0 >= due - due0);
    }
}
