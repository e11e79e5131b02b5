//! CPU time accounting.
//!
//! Figure 2c/2d of the paper hinge on *where* the upstream instance's CPU
//! time goes (serialization vs multi-layer packet processing) and how
//! utilized each instance's core is. [`CpuAccount`] accumulates busy time by
//! [`CpuCategory`]; [`CoreClock`] serializes work on a single simulated core
//! so that a task cannot process two tuples at once — which is exactly the
//! serial-server assumption of the paper's M/D/1 model.

use crate::time::{SimDuration, SimTime};

/// What a simulated CPU was doing.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CpuCategory {
    /// Serializing a tuple into wire format.
    Serialization,
    /// Deserializing a received message.
    Deserialization,
    /// Kernel network-stack / packet processing (TCP path).
    PacketProcessing,
    /// Posting an RDMA work request (kernel-bypass path).
    WorkRequestPost,
    /// Local dispatch of a received tuple to hosted instances.
    Dispatch,
    /// Application operator logic (matching, aggregation, ...).
    AppLogic,
    /// Anything else (control messages, monitoring, ...).
    Other,
}

impl CpuCategory {
    /// All categories, for iteration in reports.
    pub const ALL: [CpuCategory; 7] = [
        CpuCategory::Serialization,
        CpuCategory::Deserialization,
        CpuCategory::PacketProcessing,
        CpuCategory::WorkRequestPost,
        CpuCategory::Dispatch,
        CpuCategory::AppLogic,
        CpuCategory::Other,
    ];

    fn index(self) -> usize {
        match self {
            CpuCategory::Serialization => 0,
            CpuCategory::Deserialization => 1,
            CpuCategory::PacketProcessing => 2,
            CpuCategory::WorkRequestPost => 3,
            CpuCategory::Dispatch => 4,
            CpuCategory::AppLogic => 5,
            CpuCategory::Other => 6,
        }
    }

    /// Short label for report rows.
    pub fn label(self) -> &'static str {
        match self {
            CpuCategory::Serialization => "serialization",
            CpuCategory::Deserialization => "deserialization",
            CpuCategory::PacketProcessing => "packet_processing",
            CpuCategory::WorkRequestPost => "wr_post",
            CpuCategory::Dispatch => "dispatch",
            CpuCategory::AppLogic => "app_logic",
            CpuCategory::Other => "other",
        }
    }
}

/// Accumulated busy time by category.
#[derive(Clone, Debug, Default)]
pub struct CpuAccount {
    busy: [SimDuration; 7],
}

impl CpuAccount {
    /// New empty account.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge `d` of busy time to `cat`.
    #[inline]
    pub fn charge(&mut self, cat: CpuCategory, d: SimDuration) {
        self.busy[cat.index()] += d;
    }

    /// Busy time in one category.
    pub fn busy_in(&self, cat: CpuCategory) -> SimDuration {
        self.busy[cat.index()]
    }

    /// Total busy time across categories.
    pub fn total_busy(&self) -> SimDuration {
        self.busy.iter().copied().sum()
    }

    /// Utilization over a wall-clock window: `busy / window`, capped at 1.
    pub fn utilization(&self, window: SimDuration) -> f64 {
        if window.is_zero() {
            return 0.0;
        }
        (self.total_busy().as_nanos() as f64 / window.as_nanos() as f64).min(1.0)
    }

    /// Fraction of busy time spent in `cat` (0 if idle).
    pub fn share(&self, cat: CpuCategory) -> f64 {
        let total = self.total_busy().as_nanos();
        if total == 0 {
            return 0.0;
        }
        self.busy_in(cat).as_nanos() as f64 / total as f64
    }

    /// Merge another account into this one.
    pub fn merge(&mut self, other: &CpuAccount) {
        for (a, b) in self.busy.iter_mut().zip(other.busy.iter()) {
            *a += *b;
        }
    }

    /// Clear all counters.
    pub fn reset(&mut self) {
        self.busy = Default::default();
    }
}

/// A single simulated core: work items execute serially.
///
/// `begin_work(now, d)` returns the interval `[start, end)` during which the
/// work runs: it starts at `max(now, prev_end)` and occupies the core for
/// `d`. This models a busy executor thread whose next tuple must wait until
/// the previous one finishes — the serial server of the M/D/1 analysis.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreClock {
    free_at: SimTime,
}

impl CoreClock {
    /// A core that is free immediately.
    pub fn new() -> Self {
        Self::default()
    }

    /// Time at which the core becomes free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Occupy the core for `d` starting no earlier than `now`.
    /// Returns `(start, end)` of the work interval.
    pub fn begin_work(&mut self, now: SimTime, d: SimDuration) -> (SimTime, SimTime) {
        let start = self.free_at.max(now);
        let end = start + d;
        self.free_at = end;
        (start, end)
    }

    /// Forget queued work (e.g. when a component restarts).
    pub fn reset(&mut self, now: SimTime) {
        self.free_at = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_total() {
        let mut acc = CpuAccount::new();
        acc.charge(CpuCategory::Serialization, SimDuration::from_micros(10));
        acc.charge(CpuCategory::PacketProcessing, SimDuration::from_micros(30));
        acc.charge(CpuCategory::Serialization, SimDuration::from_micros(5));
        assert_eq!(
            acc.busy_in(CpuCategory::Serialization),
            SimDuration::from_micros(15)
        );
        assert_eq!(acc.total_busy(), SimDuration::from_micros(45));
    }

    #[test]
    fn utilization_caps_at_one() {
        let mut acc = CpuAccount::new();
        acc.charge(CpuCategory::AppLogic, SimDuration::from_secs(2));
        assert_eq!(acc.utilization(SimDuration::from_secs(1)), 1.0);
        assert!((acc.utilization(SimDuration::from_secs(4)) - 0.5).abs() < 1e-12);
        assert_eq!(acc.utilization(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn shares_sum_to_one_when_busy() {
        let mut acc = CpuAccount::new();
        acc.charge(CpuCategory::Serialization, SimDuration::from_micros(25));
        acc.charge(CpuCategory::PacketProcessing, SimDuration::from_micros(75));
        assert!((acc.share(CpuCategory::Serialization) - 0.25).abs() < 1e-12);
        assert!((acc.share(CpuCategory::PacketProcessing) - 0.75).abs() < 1e-12);
        let total: f64 = CpuCategory::ALL.iter().map(|&c| acc.share(c)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn share_zero_when_idle() {
        let acc = CpuAccount::new();
        assert_eq!(acc.share(CpuCategory::AppLogic), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CpuAccount::new();
        let mut b = CpuAccount::new();
        a.charge(CpuCategory::Dispatch, SimDuration::from_micros(1));
        b.charge(CpuCategory::Dispatch, SimDuration::from_micros(2));
        b.charge(CpuCategory::Other, SimDuration::from_micros(3));
        a.merge(&b);
        assert_eq!(
            a.busy_in(CpuCategory::Dispatch),
            SimDuration::from_micros(3)
        );
        assert_eq!(a.busy_in(CpuCategory::Other), SimDuration::from_micros(3));
    }

    #[test]
    fn core_serializes_work() {
        let mut core = CoreClock::new();
        let (s1, e1) = core.begin_work(SimTime::from_micros(10), SimDuration::from_micros(5));
        assert_eq!(s1, SimTime::from_micros(10));
        assert_eq!(e1, SimTime::from_micros(15));
        // Submitted while busy: starts when the core frees up.
        let (s2, e2) = core.begin_work(SimTime::from_micros(12), SimDuration::from_micros(5));
        assert_eq!(s2, SimTime::from_micros(15));
        assert_eq!(e2, SimTime::from_micros(20));
        // Submitted after idle gap: starts immediately.
        let (s3, _) = core.begin_work(SimTime::from_micros(100), SimDuration::from_micros(1));
        assert_eq!(s3, SimTime::from_micros(100));
    }

    #[test]
    fn core_reset_moves_the_free_time() {
        let mut core = CoreClock::new();
        assert_eq!(core.free_at(), SimTime::ZERO);
        core.begin_work(SimTime::ZERO, SimDuration::from_micros(10));
        assert_eq!(core.free_at(), SimTime::from_micros(10));
        core.reset(SimTime::from_micros(3));
        assert_eq!(core.free_at(), SimTime::from_micros(3));
    }
}
