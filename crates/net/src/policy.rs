//! Bounded retry policy for backpressured sends.
//!
//! The live runtime used to spin forever on [`SendError::Full`] — a
//! livelock if the destination never drains. A [`SendPolicy`] bounds
//! that wait: a short spin phase for the common transient case, a yield
//! phase to let a reader on the same core run, then parked
//! exponential backoff under a hard deadline. On exhaustion the send
//! fails with [`SendError::Full`] and the caller decides what "failed"
//! means (the dsps runtime counts the frame and degrades the run).

use crate::fabric::SendError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A spin → yield → parked-backoff schedule with a hard deadline.
///
/// Retries apply only to [`SendError::Full`]; every other outcome is
/// returned to the caller immediately. The deadline clock starts at the
/// first *parked* retry, so the cheap spin/yield phases never pay for a
/// syscall to read the time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SendPolicy {
    /// Busy-spin retries before yielding (cheapest, for sub-µs stalls).
    pub spin: u32,
    /// `yield_now` retries before parking (lets a same-core reader run).
    pub yields: u32,
    /// Total parked time budget; once exceeded the send fails `Full`.
    pub deadline: Duration,
}

impl Default for SendPolicy {
    fn default() -> Self {
        SendPolicy {
            spin: 64,
            yields: 256,
            deadline: Duration::from_secs(5),
        }
    }
}

impl SendPolicy {
    /// First parked sleep; doubles on each subsequent park.
    const PARK_INITIAL: Duration = Duration::from_micros(10);
    /// Ceiling for the parked sleep.
    const PARK_MAX: Duration = Duration::from_millis(1);

    /// Run `attempt` under this policy. Retries [`SendError::Full`]
    /// per the schedule, incrementing `retries` once per re-attempt;
    /// any other result is returned as-is. Returns `Err(Full)` when
    /// the deadline is exhausted.
    pub fn run<T>(
        &self,
        retries: &AtomicU64,
        mut attempt: impl FnMut() -> Result<T, SendError>,
    ) -> Result<T, SendError> {
        match attempt() {
            Err(SendError::Full) => {}
            other => return other,
        }
        let mut spins = 0u32;
        let mut yields = 0u32;
        let mut park = Self::PARK_INITIAL;
        let mut deadline: Option<Instant> = None;
        loop {
            if spins < self.spin {
                spins += 1;
                std::hint::spin_loop();
            } else if yields < self.yields {
                yields += 1;
                std::thread::yield_now();
            } else {
                let now = Instant::now();
                let limit = *deadline.get_or_insert_with(|| now + self.deadline);
                if now >= limit {
                    return Err(SendError::Full);
                }
                std::thread::sleep(park.min(limit - now));
                park = (park * 2).min(Self::PARK_MAX);
            }
            retries.fetch_add(1, Ordering::Relaxed);
            match attempt() {
                Err(SendError::Full) => {}
                other => return other,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_passes_through_without_retry() {
        let retries = AtomicU64::new(0);
        let r: Result<u32, SendError> = SendPolicy::default().run(&retries, || Ok(7));
        assert_eq!(r, Ok(7));
        assert_eq!(retries.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn terminal_errors_are_not_retried() {
        let retries = AtomicU64::new(0);
        let mut calls = 0u32;
        let r: Result<(), SendError> = SendPolicy::default().run(&retries, || {
            calls += 1;
            Err(SendError::Disconnected)
        });
        assert_eq!(r, Err(SendError::Disconnected));
        assert_eq!(calls, 1);
        assert_eq!(retries.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn full_is_retried_until_success() {
        let retries = AtomicU64::new(0);
        let mut left = 5u32;
        let r = SendPolicy::default().run(&retries, || {
            if left > 0 {
                left -= 1;
                Err(SendError::Full)
            } else {
                Ok(())
            }
        });
        assert_eq!(r, Ok(()));
        assert_eq!(retries.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn deadline_bounds_a_stuck_full() {
        let policy = SendPolicy {
            spin: 2,
            yields: 2,
            deadline: Duration::from_millis(20),
        };
        let retries = AtomicU64::new(0);
        let started = Instant::now();
        let r: Result<(), SendError> = policy.run(&retries, || Err(SendError::Full));
        assert_eq!(r, Err(SendError::Full));
        // Terminated promptly — the whole point of the policy.
        assert!(started.elapsed() < Duration::from_secs(5));
        assert!(retries.load(Ordering::Relaxed) >= 4);
    }

    #[test]
    fn zero_budget_policy_never_sleeps() {
        let policy = SendPolicy {
            spin: 0,
            yields: 0,
            deadline: Duration::ZERO,
        };
        let retries = AtomicU64::new(0);
        let started = Instant::now();
        let r: Result<(), SendError> = policy.run(&retries, || Err(SendError::Full));
        assert_eq!(r, Err(SendError::Full));
        assert!(started.elapsed() < Duration::from_secs(1));
    }
}
