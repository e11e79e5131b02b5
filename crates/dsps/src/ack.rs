//! Latency tracking: from tuple emission at the source to completion at
//! the sink (the paper's "processing latency") and to last-destination
//! receipt (the "multicast latency").

use std::collections::HashMap;
use whale_sim::{Histogram, SimDuration, SimTime};

/// Tracks in-flight tuples and records completion latencies.
#[derive(Debug, Default)]
pub struct LatencyTracker {
    inflight: HashMap<u64, SimTime>,
    hist: Histogram,
    completed: u64,
}

impl LatencyTracker {
    /// New empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that tuple `id` was emitted at `at`.
    pub fn emitted(&mut self, id: u64, at: SimTime) {
        self.inflight.insert(id, at);
    }

    /// Record completion of tuple `id` at `at`; returns its latency.
    /// Unknown ids (e.g. dropped then retried) return `None`.
    pub fn completed(&mut self, id: u64, at: SimTime) -> Option<SimDuration> {
        let start = self.inflight.remove(&id)?;
        let lat = at.since(start);
        self.hist.record_duration(lat);
        self.completed += 1;
        Some(lat)
    }

    /// Discard an in-flight tuple (e.g. dropped at an overflowing queue).
    pub fn dropped(&mut self, id: u64) -> bool {
        self.inflight.remove(&id).is_some()
    }

    /// Tuples still in flight.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Completed tuple count.
    pub fn completed_count(&self) -> u64 {
        self.completed
    }

    /// Latency distribution of completed tuples.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Mean latency.
    pub fn mean(&self) -> SimDuration {
        self.hist.mean_duration()
    }
}

/// Tracks multicast completion: a tuple is done when **all** destinations
/// have received it (Def. of multicast latency in §3.2).
#[derive(Debug, Default)]
pub struct MulticastTracker {
    inflight: HashMap<u64, (SimTime, u32)>,
    hist: Histogram,
    completed: u64,
}

impl MulticastTracker {
    /// New empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tuple `id` entered the source at `at`, bound for `destinations`.
    pub fn emitted(&mut self, id: u64, at: SimTime, destinations: u32) {
        assert!(destinations > 0);
        self.inflight.insert(id, (at, destinations));
    }

    /// One destination received tuple `id` at `at`. Returns the multicast
    /// latency when this was the last outstanding destination.
    pub fn received(&mut self, id: u64, at: SimTime) -> Option<SimDuration> {
        let entry = self.inflight.get_mut(&id)?;
        entry.1 -= 1;
        if entry.1 == 0 {
            let (start, _) = self.inflight.remove(&id).unwrap();
            let lat = at.since(start);
            self.hist.record_duration(lat);
            self.completed += 1;
            Some(lat)
        } else {
            None
        }
    }

    /// Tuples not yet fully delivered.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Fully delivered tuple count.
    pub fn completed_count(&self) -> u64 {
        self.completed
    }

    /// Multicast latency distribution.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }

    /// Mean multicast latency.
    pub fn mean(&self) -> SimDuration {
        self.hist.mean_duration()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_roundtrip() {
        let mut t = LatencyTracker::new();
        t.emitted(1, SimTime::from_micros(10));
        let lat = t.completed(1, SimTime::from_micros(35)).unwrap();
        assert_eq!(lat, SimDuration::from_micros(25));
        assert_eq!(t.completed_count(), 1);
        assert_eq!(t.inflight(), 0);
    }

    #[test]
    fn drop_removes_inflight() {
        let mut t = LatencyTracker::new();
        t.emitted(1, SimTime::ZERO);
        assert!(t.dropped(1));
        assert!(!t.dropped(1));
        assert!(t.completed(1, SimTime::from_micros(5)).is_none());
    }

    #[test]
    fn histogram_accumulates() {
        let mut t = LatencyTracker::new();
        for i in 0..10u64 {
            t.emitted(i, SimTime::ZERO);
            t.completed(i, SimTime::from_micros(100));
        }
        assert_eq!(t.histogram().count(), 10);
        assert_eq!(t.mean(), SimDuration::from_micros(100));
    }

    #[test]
    fn multicast_completes_on_last_destination() {
        let mut m = MulticastTracker::new();
        m.emitted(7, SimTime::ZERO, 3);
        assert!(m.received(7, SimTime::from_micros(10)).is_none());
        assert!(m.received(7, SimTime::from_micros(20)).is_none());
        let lat = m.received(7, SimTime::from_micros(40)).unwrap();
        assert_eq!(lat, SimDuration::from_micros(40));
        assert_eq!(m.completed_count(), 1);
        assert_eq!(m.inflight(), 0);
    }

    #[test]
    fn multicast_unknown_id_ignored() {
        let mut m = MulticastTracker::new();
        assert!(m.received(1, SimTime::ZERO).is_none());
        assert_eq!(m.completed_count(), 0);
    }

    #[test]
    fn multicast_latency_is_last_arrival() {
        let mut m = MulticastTracker::new();
        m.emitted(1, SimTime::from_micros(5), 2);
        m.received(1, SimTime::from_micros(50));
        let lat = m.received(1, SimTime::from_micros(9)).unwrap();
        // Last receipt at t=9 (earlier than the other): since() saturates,
        // latency measured from emit to the *final* received call.
        assert_eq!(lat, SimDuration::from_micros(4));
    }

    #[test]
    #[should_panic]
    fn multicast_zero_destinations_rejected() {
        let mut m = MulticastTracker::new();
        m.emitted(1, SimTime::ZERO, 0);
    }
}
